//! The merge paths split match conditions into event-independent
//! components. A directory of people whose uncertain phones were inserted in
//! interleaved event order (every person's event before every phone's) is
//! the shape where one diagram in event-id order blows up: `person { phone }`
//! must still form one merged group whose probability is the closed form
//! `1 − Π(1 − p(personᵢ)·p(phoneᵢ))`, equal to the selection probability,
//! and, at a size the possible worlds can be enumerated, equal to the
//! possible-worlds query.

use pxml_core::FuzzyTree;
use pxml_event::{Condition, Literal};
use pxml_query::Pattern;

/// `people` people under one root; person `i` exists under event `xᵢ` and
/// its phone under `yᵢ`, with every `x` created before every `y`. Returns
/// the tree and the closed-form probability that some person has a phone.
fn interleaved_directory(people: usize) -> (FuzzyTree, f64) {
    let mut fuzzy = FuzzyTree::new("directory");
    let x: Vec<_> = (0..people)
        .map(|i| {
            let p = 0.4 + 0.5 * i as f64 / people as f64;
            fuzzy.add_event(format!("x{i}"), p).unwrap()
        })
        .collect();
    let y: Vec<_> = (0..people)
        .map(|i| {
            let p = 0.85 - 0.6 * i as f64 / people as f64;
            fuzzy.add_event(format!("y{i}"), p).unwrap()
        })
        .collect();
    let mut none_has_phone = 1.0;
    for i in 0..people {
        let person = fuzzy.add_element(fuzzy.root(), "person");
        fuzzy
            .set_condition(person, Condition::from_literal(Literal::pos(x[i])))
            .unwrap();
        let name = fuzzy.add_element(person, "name");
        fuzzy.add_text(name, format!("person {i}"));
        let phone = fuzzy.add_element(person, "phone");
        fuzzy
            .set_condition(phone, Condition::from_literal(Literal::pos(y[i])))
            .unwrap();
        fuzzy.add_text(phone, format!("555-{i:04}"));
        let events = fuzzy.events();
        none_has_phone *= 1.0 - events.probability(x[i]) * events.probability(y[i]);
    }
    (fuzzy, 1.0 - none_has_phone)
}

#[test]
fn interleaved_people_merge_to_the_closed_form() {
    let (fuzzy, closed_form) = interleaved_directory(40);
    let query = Pattern::parse("person { phone }").unwrap();
    let result = fuzzy.query(&query);
    assert_eq!(result.len(), 40);
    let merged = result.merged_answers(fuzzy.events());
    assert_eq!(
        merged.len(),
        1,
        "every person {{ phone }} answer is isomorphic"
    );
    assert!((merged[0].1 - closed_form).abs() < 1e-12);
    let selection = result.selection_probability(fuzzy.events());
    assert!((selection - closed_form).abs() < 1e-12);
    assert!((selection - merged[0].1).abs() < 1e-12);
}

#[test]
fn interleaved_people_agree_with_possible_worlds() {
    // 4 people, 8 events: 256 valuations.
    let (fuzzy, closed_form) = interleaved_directory(4);
    let query = Pattern::parse("person { phone }").unwrap();
    let result = fuzzy.query(&query);
    let via_fuzzy = result.as_possible_worlds(fuzzy.events());
    let via_worlds = fuzzy.to_possible_worlds().unwrap().query(&query);
    assert!(via_fuzzy.equivalent(&via_worlds, 1e-9));
    let merged = result.merged_answers(fuzzy.events());
    assert_eq!(merged.len(), 1);
    assert!((via_worlds.probability_of_tree(&merged[0].0) - closed_form).abs() < 1e-12);
    assert!((result.selection_probability(fuzzy.events()) - closed_form).abs() < 1e-12);
}
