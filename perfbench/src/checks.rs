//! Output checks that need more than a comparison.

use std::collections::{BTreeMap, HashMap, HashSet};

use pxml_core::{FuzzyTree, PossibleWorlds};
use pxml_event::{Condition, EventId, Literal};
use pxml_query::Pattern;
use pxml_tree::{Label, NodeId};
use pxml_warehouse::MergedQuery;

use crate::engine::{fail, Failure};

/// People with at most this many events are compared world by world; the
/// expansion doubles with every event.
const EXACT_EVENTS: usize = 8;

/// Whether two people directories have the same possible-worlds semantics.
///
/// Expanding a whole directory into its possible worlds is exponential in
/// its events, so the check runs per person: every extraction update
/// matches one person by name, so no event is shared between two people
/// (checked here) and the directory's distribution is the product of its
/// people's. A person with at most [`EXACT_EVENTS`] events is compared
/// through its possible worlds; a person with more is compared through the
/// exact merged answers of `person { name[="…"], <field> }` for every field
/// the extractors write.
pub fn directories_equivalent(a: &FuzzyTree, b: &FuzzyTree) -> Result<(), Failure> {
    let people_a = people(a)?;
    let people_b = people(b)?;
    if people_a.keys().ne(people_b.keys()) {
        return Err("the two directories name different people".into());
    }
    for (name, &node) in &people_a {
        let left = person_document(a, node)?;
        let right = person_document(b, people_b[name])?;
        let same = if left.event_count().max(right.event_count()) <= EXACT_EVENTS {
            left.semantically_equivalent(&right, 1e-9)
                .map_err(|e| fail("expand person", e))?
        } else {
            same_field_answers(&left, &right, name)?
        };
        if !same {
            return Err(format!("person `{name}` differs after reopen"));
        }
    }
    Ok(())
}

fn same_field_answers(a: &FuzzyTree, b: &FuzzyTree, name: &str) -> Result<bool, Failure> {
    for field in ["phone", "email", "city"] {
        let pattern = Pattern::parse(&format!("person {{ name[=\"{name}\"], {field} }}"))
            .map_err(|e| fail("parse pattern", e))?;
        let answers = |fuzzy: &FuzzyTree| -> PossibleWorlds {
            fuzzy
                .query(&pattern)
                .merged_answers(fuzzy.events())
                .into_iter()
                .collect()
        };
        if !answers(a).equivalent(&answers(b), 1e-9) {
            return Ok(false);
        }
    }
    Ok(true)
}

/// The directory's people by name, after checking that no event is
/// mentioned under two of them.
fn people(fuzzy: &FuzzyTree) -> Result<BTreeMap<String, NodeId>, Failure> {
    let tree = fuzzy.tree();
    let mut people = BTreeMap::new();
    let mut owner: HashMap<EventId, String> = HashMap::new();
    for &person in tree.children(tree.root()) {
        let name = tree
            .children(person)
            .iter()
            .find(|&&child| matches!(tree.label(child), Label::Element(l) if l == "name"))
            .map(|&child| tree.text_content(child))
            .ok_or("a person without a name")?;
        let mut mentioned = HashSet::new();
        for node in tree.descendants_or_self(person) {
            mentioned.extend(fuzzy.condition(node).events());
        }
        for event in mentioned {
            if let Some(other) = owner.insert(event, name.clone()) {
                return Err(format!(
                    "`{other}` and `{name}` share an event; the per-person check does not apply"
                ));
            }
        }
        people.insert(name, person);
    }
    Ok(people)
}

/// One person as a document of its own (`directory / person`), with the
/// events its conditions mention copied to a fresh table.
fn person_document(fuzzy: &FuzzyTree, person: NodeId) -> Result<FuzzyTree, Failure> {
    let mut out = FuzzyTree::new("directory");
    let mut events = HashMap::new();
    let root = out.root();
    copy(fuzzy, person, &mut out, root, &mut events)?;
    Ok(out)
}

fn copy(
    source: &FuzzyTree,
    node: NodeId,
    out: &mut FuzzyTree,
    parent: NodeId,
    events: &mut HashMap<EventId, EventId>,
) -> Result<(), Failure> {
    let mut literals = Vec::new();
    for literal in source.condition(node).literals() {
        let event = match events.get(&literal.event) {
            Some(&event) => event,
            None => {
                let probability = source.events().probability(literal.event);
                let event = out
                    .fresh_event(probability)
                    .map_err(|e| fail("copy event", e))?;
                events.insert(literal.event, event);
                event
            }
        };
        literals.push(Literal {
            event,
            positive: literal.positive,
        });
    }
    let condition = Condition::from_literals(literals);
    let copied = match source.tree().label(node) {
        Label::Element(name) => out.add_conditional_element(parent, name.clone(), condition),
        Label::Text(value) => {
            let text = out.add_text(parent, value.clone());
            if !condition.is_empty() {
                out.set_condition(text, condition)
                    .map_err(|e| fail("copy condition", e))?;
            }
            text
        }
    };
    for &child in source.tree().children(node) {
        copy(source, child, out, copied, events)?;
    }
    Ok(())
}

/// Whether a merged answer equals the query evaluated over the possible
/// worlds of `fuzzy`, within 1e-9.
pub fn matches_possible_worlds(
    fuzzy: &FuzzyTree,
    pattern: &Pattern,
    answer: &MergedQuery,
) -> Result<bool, Failure> {
    let merged: PossibleWorlds = answer.answers.iter().cloned().collect();
    let worlds = fuzzy
        .to_possible_worlds()
        .map_err(|e| fail("expand possible worlds", e))?
        .query(pattern);
    Ok(merged.normalized().equivalent(&worlds, 1e-9))
}
