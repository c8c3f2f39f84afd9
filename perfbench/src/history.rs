//! `uncertain_history`: a read-only closed loop of broad merged queries over
//! a directory built, at set-up, from a long extraction history, with a cold
//! reopen of a stored copy of the directory after every pass of queries.

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use pxml_core::{FuzzyTree, SimplifyPolicy};
use pxml_query::Pattern;
use pxml_store::MemBackend;
use pxml_tree::parse_data_tree;
use pxml_warehouse::{SessionConfig, Warehouse};

use crate::checks::{directories_equivalent, matches_possible_worlds};
use crate::engine::{
    bdd_nodes, disk_bytes, fail, fresh_dir, probabilities_in_range, Engine, Failure,
};
use crate::inputs::{HistoryInputs, HISTORY_PROBE_LENGTHS};
use crate::report::{keep_best, Run};
use crate::stats::{median, ms, us};
use crate::trace::Tracer;

const DOC: &str = "people";
/// Query passes between two rebuilds of the history in the measured loop.
const PASSES_PER_REBUILD: u32 = 4;

pub fn run(
    inputs: &HistoryInputs,
    seconds: u64,
    tracer: Option<Arc<Tracer>>,
    work: &Path,
) -> Result<Run, Failure> {
    let config = SessionConfig::default();
    let mut run = Run::default();
    let rotation = inputs
        .rotation
        .iter()
        .map(|p| Pattern::parse(p).map_err(|e| fail("parse pattern", e)))
        .collect::<Result<Vec<_>, _>>()?;
    run.check(
        "merged answers equal possible worlds on a small directory",
        small_directory_check(inputs, &rotation),
    );

    // Set-up: commit the whole history, one update per commit, once into
    // the recovery store (closed afterwards) and once into the store the
    // queries run on. The history's commit latencies are this workload's
    // commit metrics; the loop below commits it again every few passes.
    let recovery = work.join("recovery");
    build(inputs, &recovery, tracer.as_ref(), &mut run)?.close();
    let engine = build(inputs, &work.join("live"), tracer.as_ref(), &mut run)?;
    run.updates = inputs.history.len() as u64;
    let stats = engine.warehouse.stats();
    run.layers.insert(
        "store.fsyncs_per_commit",
        stats.fsyncs as f64 / inputs.history.len().max(1) as f64,
    );
    run.layers
        .insert("store.window_occupancy", stats.mean_window_occupancy());
    run.stored_bytes = disk_bytes(&recovery);
    let published = engine
        .warehouse
        .snapshot(DOC)
        .map_err(|e| fail("pin", e))?
        .fuzzy()
        .clone();
    let (reopened, _) = Engine::open(&recovery, config, None)?;
    let recovered = reopened
        .warehouse
        .snapshot(DOC)
        .map_err(|e| fail("pin", e))?
        .fuzzy()
        .clone();
    run.check(
        "reopened document equals the last published snapshot",
        directories_equivalent(&published, &recovered),
    );
    drop(reopened);

    // Measured loop: the rotation of broad patterns, closed loop, after one
    // untimed rotation that lets the allocator reach its working set.
    for pattern in &rotation {
        engine.query(DOC, pattern, 0)?;
    }
    let start = Instant::now();
    let deadline = start + Duration::from_secs(seconds);
    let mut request = 1_000_000;
    let mut passes = 0;
    while Instant::now() < deadline {
        // A round is one pass over the rotation.
        let mut ops = Vec::with_capacity(rotation.len());
        for pattern in &rotation {
            run.attempted += 1;
            request += 1;
            match engine.query(DOC, pattern, request) {
                Ok((elapsed, answer)) if probabilities_in_range(&answer) => {
                    ops.push((false, ms(elapsed)))
                }
                outcome => {
                    run.failure(match outcome {
                        Err(problem) => problem,
                        Ok(_) => "merged probability outside [0, 1]".into(),
                    });
                    ops.push((false, f64::INFINITY));
                }
            }
        }
        run.round(&ops, true);
        // A cold reopen after every round and a rebuild of the history
        // every few, so that both spread over the run.
        let (_, elapsed) = Engine::open(&recovery, config, tracer.clone())?;
        run.recovery_ms.push(ms(elapsed));
        passes += 1;
        if passes % PASSES_PER_REBUILD == 0 {
            build(inputs, &work.join("rebuild"), tracer.as_ref(), &mut run)?.close();
        }
    }
    engine.close();
    Ok(run)
}

/// Creates the directory in an empty store at `dir` and commits the history
/// into it, one update per commit: one set-up, and one round of commits.
fn build(
    inputs: &HistoryInputs,
    dir: &Path,
    tracer: Option<&Arc<Tracer>>,
    run: &mut Run,
) -> Result<Engine, Failure> {
    let dir = fresh_dir(dir)?;
    let start = Instant::now();
    let (engine, _) = Engine::open(&dir, SessionConfig::default(), tracer.cloned())?;
    let tree = parse_data_tree(&inputs.initial_xml).map_err(|e| fail("parse XML", e))?;
    engine
        .warehouse
        .create_document(DOC, tree)
        .map_err(|e| fail("create", e))?;
    let mut commit_ms = Vec::with_capacity(inputs.history.len());
    for (i, update) in inputs.history.iter().enumerate() {
        let elapsed = engine.commit(DOC, std::slice::from_ref(update), i as u64)?;
        commit_ms.push(ms(elapsed));
    }
    run.setup_s.push(start.elapsed().as_secs_f64());
    keep_best(&mut run.commit_best, &commit_ms);
    run.commit_ms.extend(commit_ms);
    Ok(engine)
}

/// Commits the small check history into an in-memory warehouse and compares
/// each pattern's merged answers with the possible-worlds evaluation.
fn small_directory_check(inputs: &HistoryInputs, patterns: &[Pattern]) -> Result<(), Failure> {
    let warehouse = Warehouse::with_backend(Arc::new(MemBackend::new()), SessionConfig::default())
        .map_err(|e| fail("open", e))?;
    let tree = parse_data_tree(&inputs.check_xml).map_err(|e| fail("parse XML", e))?;
    warehouse
        .create_document(DOC, tree)
        .map_err(|e| fail("create", e))?;
    for update in &inputs.check_history {
        warehouse
            .commit_batch(DOC, std::slice::from_ref(update), None)
            .map_err(|e| fail("commit", e))?;
    }
    let snapshot = warehouse.snapshot(DOC).map_err(|e| fail("pin", e))?;
    if snapshot.fuzzy().event_count() > 10 {
        return Err("the check directory has more than 10 events".into());
    }
    for (pattern, text) in patterns.iter().zip(&inputs.rotation) {
        let answer = warehouse
            .query_merged(DOC, pattern)
            .map_err(|e| fail("query", e))?;
        if !matches_possible_worlds(snapshot.fuzzy(), pattern, &answer)? {
            return Err(format!("`{text}` disagrees with possible worlds"));
        }
    }
    Ok(())
}

/// The traced run's table: merge time and BDD size of `person { phone }`
/// against history length.
pub fn length_table(inputs: &HistoryInputs) -> Result<String, Failure> {
    let pattern = Pattern::parse("person { phone }").map_err(|e| fail("parse pattern", e))?;
    let mut out = format!(
        "person {{ phone }} against history length (medians of 3)\n{:>8} {:>8} {:>8} {:>10} {:>12} {:>10}\n",
        "updates", "nodes", "events", "match_us", "merge_us", "bdd_nodes"
    );
    let mut fuzzy = FuzzyTree::from_tree(
        parse_data_tree(&inputs.initial_xml).map_err(|e| fail("parse XML", e))?,
    );
    let mut applied = 0;
    for length in HISTORY_PROBE_LENGTHS {
        for update in &inputs.history[applied..length.min(inputs.history.len())] {
            update
                .apply_to_fuzzy_with(&mut fuzzy, SimplifyPolicy::Inline)
                .map_err(|e| fail("apply", e))?;
        }
        applied = length;
        let (mut matching, mut merge) = (Vec::new(), Vec::new());
        for _ in 0..3 {
            let started = Instant::now();
            let result = fuzzy.query(&pattern);
            matching.push(us(started.elapsed()));
            let started = Instant::now();
            std::hint::black_box(result.merged_answers(fuzzy.events()));
            merge.push(us(started.elapsed()));
        }
        out.push_str(&format!(
            "{length:>8} {:>8} {:>8} {:>10.1} {:>12.1} {:>10}\n",
            fuzzy.node_count(),
            fuzzy.event_count(),
            median(&matching),
            median(&merge),
            bdd_nodes(&fuzzy, &pattern)
        ));
    }
    Ok(out)
}
