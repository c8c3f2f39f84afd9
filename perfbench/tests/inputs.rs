//! The benchmark's inputs are a function of the seed alone, and they are
//! all the measured program receives.

use std::path::Path;
use std::sync::Arc;

use pxml_perfbench::engine::Failure;
use pxml_perfbench::inputs::{
    HistoryInputs, IngestInputs, ServedInputs, ServedKind, HISTORY_LENGTH,
    SERVED_QUERIES_PER_COMMIT, SERVED_RATE, SERVED_ROUND_US,
};
use pxml_perfbench::report::Run;
use pxml_perfbench::trace::Tracer;
use pxml_perfbench::{history, ingest, served};

#[test]
fn one_seed_gives_byte_identical_inputs() {
    for seed in [0, 7, 123_456_789] {
        assert_eq!(
            IngestInputs::generate(seed).render(),
            IngestInputs::generate(seed).render()
        );
        assert_eq!(
            ServedInputs::generate(seed).render(),
            ServedInputs::generate(seed).render()
        );
        assert_eq!(
            HistoryInputs::generate(seed).render(),
            HistoryInputs::generate(seed).render()
        );
    }
}

#[test]
fn another_seed_gives_other_inputs() {
    assert_ne!(
        IngestInputs::generate(1).render(),
        IngestInputs::generate(2).render()
    );
    assert_ne!(
        ServedInputs::generate(1).render(),
        ServedInputs::generate(2).render()
    );
    assert_ne!(
        HistoryInputs::generate(1).render(),
        HistoryInputs::generate(2).render()
    );
}

#[test]
fn rendered_inputs_cover_every_field() {
    let ingest = IngestInputs::generate(3);
    let text = ingest.render();
    assert!(text.starts_with(&ingest.initial_xml));
    assert!(ingest.queries.iter().all(|q| text.contains(q.as_str())));
    assert!(ingest
        .size_probe
        .iter()
        .all(|(xml, _)| text.contains(xml.as_str())));

    let history = HistoryInputs::generate(3);
    assert_eq!(history.history.len(), HISTORY_LENGTH);
    let text = history.render();
    assert!(text.contains(history.check_xml.as_str()));
    assert!(history.rotation.iter().all(|p| text.contains(p.as_str())));
}

#[test]
fn served_round_is_ordered_and_mixed_four_to_one() {
    let inputs = ServedInputs::generate(5);
    let (mut queries, mut commits) = (0usize, 0usize);
    for ops in &inputs.schedules {
        assert!(ops.windows(2).all(|w| w[0].due_us <= w[1].due_us));
        assert!(ops.iter().all(|op| op.due_us < SERVED_ROUND_US));
        for op in ops {
            match op.kind {
                ServedKind::Query(_) => queries += 1,
                ServedKind::Commit(_) => commits += 1,
            }
        }
    }
    let offered = SERVED_RATE * SERVED_ROUND_US as f64 / 1e6;
    assert_eq!((queries + commits) as f64, offered);
    assert_eq!(queries, commits * SERVED_QUERIES_PER_COMMIT as usize);
}

/// The workload functions take generated inputs and no seed: this only
/// compiles while that holds.
#[test]
fn workloads_take_only_generated_inputs() {
    type Tracing = Option<Arc<Tracer>>;
    let _: fn(&IngestInputs, u64, Tracing, &Path) -> Result<Run, Failure> = ingest::run;
    let _: fn(&ServedInputs, u64, Tracing, &Path) -> Result<Run, Failure> = served::run;
    let _: fn(&HistoryInputs, u64, Tracing, &Path) -> Result<Run, Failure> = history::run;
}
