//! Property-based validation of the BDD probability engine against two
//! independent oracles: for any random formula over at most 12 events,
//!
//! * `Formula::probability` (BDD model counting),
//! * `Formula::probability_shannon` (the original Shannon expansion), and
//! * brute-force valuation enumeration (sum the probabilities of the
//!   satisfying valuations)
//!
//! must agree to within 1e-9; tautology/contradiction decisions must agree
//! with enumeration as well, and the BDD's disjoint covers must carry
//! exactly the function's probability mass. On random sets of conjunctive
//! conditions (some drawn from disjoint event blocks), the
//! component-splitting `any_of_probability` must agree with one monolithic
//! diagram and with enumeration to within 1e-12.

use proptest::prelude::*;
use pxml_event::{
    any_of_probability, enumerate_valuations, Bdd, Condition, EventId, EventTable, Formula, Literal,
};

const EVENTS: usize = 12;

/// A table of 12 events with fixed, varied, non-deterministic probabilities
/// (the agreement property holds for any probabilities; randomizing them
/// would only blur failure reports).
fn table() -> (EventTable, Vec<EventId>) {
    let mut table = EventTable::new();
    let events = (0..EVENTS)
        .map(|i| {
            let p = (i * 7 % 11 + 1) as f64 / 12.0;
            table.add_event(format!("w{i}"), p).unwrap()
        })
        .collect();
    (table, events)
}

/// Blueprint of a random formula, independent of any event table: leaves
/// name events by index, inner nodes are NOT (first child) / AND / OR.
#[derive(Clone, Debug)]
enum Shape {
    Lit(u8, bool),
    Not(Box<Shape>),
    And(Vec<Shape>),
    Or(Vec<Shape>),
}

impl Shape {
    fn to_formula(&self, events: &[EventId]) -> Formula {
        match self {
            Shape::Lit(index, positive) => {
                let event = events[*index as usize % events.len()];
                Formula::Lit(if *positive {
                    Literal::pos(event)
                } else {
                    Literal::neg(event)
                })
            }
            Shape::Not(inner) => Formula::negate(inner.to_formula(events)),
            Shape::And(parts) => Formula::and(parts.iter().map(|p| p.to_formula(events)).collect()),
            Shape::Or(parts) => Formula::or(parts.iter().map(|p| p.to_formula(events)).collect()),
        }
    }
}

fn shape_strategy() -> BoxedStrategy<Shape> {
    let leaf = (0u8..EVENTS as u8, any::<bool>()).prop_map(|(event, sign)| Shape::Lit(event, sign));
    leaf.boxed().prop_recursive(4, 48, 4, |inner| {
        (0u8..3, proptest::collection::vec(inner, 1..5)).prop_map(|(op, mut children)| match op {
            0 => Shape::Not(Box::new(children.pop().expect("at least one child"))),
            1 => Shape::And(children),
            _ => Shape::Or(children),
        })
    })
}

fn by_enumeration(formula: &Formula, table: &EventTable) -> f64 {
    enumerate_valuations(table)
        .unwrap()
        .into_iter()
        .filter(|v| formula.eval(v))
        .map(|v| v.probability(table))
        .sum()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn bdd_shannon_and_enumeration_agree(shape in shape_strategy()) {
        let (table, events) = table();
        let formula = shape.to_formula(&events);
        let by_bdd = formula.probability(&table);
        let by_shannon = formula.probability_shannon(&table);
        let by_valuations = by_enumeration(&formula, &table);
        prop_assert!(
            (by_bdd - by_valuations).abs() < 1e-9,
            "BDD {by_bdd} vs enumeration {by_valuations} on {formula:?}"
        );
        prop_assert!(
            (by_shannon - by_valuations).abs() < 1e-9,
            "Shannon {by_shannon} vs enumeration {by_valuations} on {formula:?}"
        );
    }

    #[test]
    fn tautology_and_contradiction_agree_with_enumeration(shape in shape_strategy()) {
        let (table, events) = table();
        let formula = shape.to_formula(&events);
        let satisfying = enumerate_valuations(&table)
            .unwrap()
            .iter()
            .filter(|v| formula.eval(v))
            .count();
        let total = 1usize << EVENTS;
        prop_assert_eq!(formula.is_tautology(), satisfying == total);
        prop_assert_eq!(formula.is_contradiction(), satisfying == 0);
        // A formula is always equivalent to itself and to its double
        // negation, and canonical equality survives a round trip.
        let doubled = Formula::negate(Formula::negate(formula.clone()));
        prop_assert!(formula.equivalent(&doubled));
    }

    #[test]
    fn disjoint_cover_carries_the_exact_mass(shape in shape_strategy()) {
        let (table, events) = table();
        let formula = shape.to_formula(&events);
        let mut bdd = Bdd::new();
        let node = bdd.formula(&formula);
        // Generous cap: 2^12 terms always suffice for 12 events.
        let Some(cover) = bdd.disjoint_cover(node, 1 << EVENTS) else {
            return Ok(());
        };
        let mass: f64 = cover.iter().map(|term| term.probability(&table)).sum();
        prop_assert!(
            (mass - formula.probability(&table)).abs() < 1e-9,
            "cover mass {mass} vs probability on {formula:?}"
        );
        for (i, a) in cover.iter().enumerate() {
            prop_assert!(a.is_consistent());
            for b in cover.iter().skip(i + 1) {
                prop_assert!(
                    a.literals().iter().any(|lit| b.contains(lit.negated())),
                    "terms {a} and {b} are not disjoint"
                );
            }
        }
    }
}

/// Deterministic cross-check on conjunctive-condition disjunctions (the
/// exact shape the query path builds): incremental [`Bdd::any_of`] equals
/// the formula route and the Shannon oracle.
#[test]
fn any_of_conditions_matches_both_probability_paths() {
    let (table, events) = table();
    let conditions: Vec<Condition> = (0..8)
        .map(|i| {
            Condition::from_literals((0..3).map(|j| {
                let event = events[(i * 3 + j * 5) % events.len()];
                if (i + j) % 3 == 0 {
                    Literal::neg(event)
                } else {
                    Literal::pos(event)
                }
            }))
        })
        .collect();
    let mut bdd = Bdd::new();
    let union = bdd.any_of(conditions.iter());
    let by_bdd = bdd.probability(union, &table);
    let formula = Formula::any_of_conditions(&conditions);
    assert!((by_bdd - formula.probability(&table)).abs() < 1e-12);
    assert!((by_bdd - formula.probability_shannon(&table)).abs() < 1e-12);
    assert!((by_bdd - by_enumeration(&formula, &table)).abs() < 1e-12);
}

/// Blueprint of one conjunctive condition: its event block and its
/// `(event offset in the block, sign)` literals.
type ConditionShape = (usize, Vec<(usize, bool)>);

/// Blueprint of a set of conjunctive conditions: the 12 events are cut into
/// `blocks` disjoint blocks and every condition draws all its literals from
/// one block, so `blocks > 1` yields sets with several event-independent
/// components (and `blocks == 1` arbitrary overlapping sets). A literal list
/// may name one event with both signs, giving an inconsistent condition.
fn condition_set_strategy() -> impl Strategy<Value = (usize, Vec<ConditionShape>)> {
    (
        1usize..=4,
        proptest::collection::vec(
            (
                0usize..4,
                proptest::collection::vec((0usize..EVENTS, any::<bool>()), 1..5),
            ),
            0..9,
        ),
    )
}

fn build_conditions(events: &[EventId], blocks: usize, shape: &[ConditionShape]) -> Vec<Condition> {
    let size = EVENTS / blocks;
    shape
        .iter()
        .map(|(block, literals)| {
            Condition::from_literals(literals.iter().map(|&(offset, positive)| {
                let event = events[(block % blocks) * size + offset % size];
                if positive {
                    Literal::pos(event)
                } else {
                    Literal::neg(event)
                }
            }))
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn component_split_agrees_with_one_diagram_and_enumeration(
        (blocks, shape) in condition_set_strategy()
    ) {
        let (table, events) = table();
        let conditions = build_conditions(&events, blocks, &shape);
        let split = any_of_probability(&conditions, &table);
        let mut bdd = Bdd::new();
        let union = bdd.any_of(conditions.iter());
        let monolithic = bdd.probability(union, &table);
        let enumerated = by_enumeration(&Formula::any_of(&conditions), &table);
        prop_assert!(
            (split - monolithic).abs() < 1e-12,
            "components {split} vs one diagram {monolithic} on {conditions:?}"
        );
        prop_assert!(
            (split - enumerated).abs() < 1e-12,
            "components {split} vs enumeration {enumerated} on {conditions:?}"
        );
    }
}

#[test]
fn component_split_edge_cases() {
    let (table, events) = table();
    let (w0, w1) = (events[0], events[1]);
    assert_eq!(any_of_probability(&[], &table), 0.0);
    let inconsistent = [
        Condition::from_literals([Literal::pos(w0), Literal::neg(w0)]),
        Condition::from_literals([Literal::pos(w1), Literal::neg(w1), Literal::pos(w0)]),
    ];
    assert_eq!(any_of_probability(&inconsistent, &table), 0.0);
    let with_always = [
        Condition::from_literal(Literal::pos(w0)),
        inconsistent[0].clone(),
        Condition::always(),
        Condition::from_literal(Literal::neg(w1)),
    ];
    assert_eq!(any_of_probability(&with_always, &table), 1.0);
}
