//! `ingest`: one writer commits extraction batches into a large directory
//! and waits for each durable ack, with a selective merged query after each
//! commit; a cold reopen of a stored copy of the directory follows every
//! round.
//!
//! The measured loop is a series of rounds. Each round creates the directory
//! afresh in an empty store (its set-up) and then commits the same batches
//! and runs the same queries, so each operation is repeated once per round
//! on the same state.

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use pxml_core::{FuzzyTree, SimplifyPolicy, UpdateTransaction};
use pxml_query::Pattern;
use pxml_tree::parse_data_tree;
use pxml_warehouse::SessionConfig;

use crate::checks::directories_equivalent;
use crate::engine::{disk_bytes, fail, fresh_dir, probabilities_in_range, Engine, Failure};
use crate::inputs::{IngestInputs, INGEST_RECOVERY_BATCHES, SIZE_PROBE_PEOPLE, SIZE_PROBE_UPDATES};
use crate::report::Run;
use crate::stats::{median, ms, us};
use crate::trace::Tracer;

const DOC: &str = "people";

pub fn run(
    inputs: &IngestInputs,
    seconds: u64,
    tracer: Option<Arc<Tracer>>,
    work: &Path,
) -> Result<Run, Failure> {
    let config = SessionConfig::default();
    let mut run = Run::default();
    let queries = inputs
        .queries
        .iter()
        .map(|q| Pattern::parse(q).map_err(|e| fail("parse query", e)))
        .collect::<Result<Vec<_>, _>>()?;
    let (measured, tail) = inputs
        .batches
        .split_at(inputs.batches.len() - INGEST_RECOVERY_BATCHES);

    // Rounds until the deadline, each from the initial directory. The first
    // round's store then becomes the recovery store, and one cold reopen of
    // it follows every round, so that the reopens spread over the run.
    let deadline = Instant::now() + Duration::from_secs(seconds);
    let recovery = work.join("recovery");
    let mut request = 0;
    for round in 0.. {
        // Set-up: open an empty store and create the directory from its XML.
        let fresh = fresh_dir(&if round == 0 {
            recovery.clone()
        } else {
            work.join("round")
        })?;
        let start = Instant::now();
        let (engine, _) = Engine::open(&fresh, config, tracer.clone())?;
        let tree = parse_data_tree(&inputs.initial_xml).map_err(|e| fail("parse XML", e))?;
        engine
            .warehouse
            .create_document(DOC, tree)
            .map_err(|e| fail("create", e))?;
        run.setup_s.push(start.elapsed().as_secs_f64());

        let mut ops = Vec::with_capacity(2 * measured.len());
        for (batch, pattern) in measured.iter().zip(&queries) {
            run.attempted += 1;
            request += 1;
            match engine.commit(DOC, batch, request) {
                Ok(elapsed) => ops.push((true, ms(elapsed))),
                Err(problem) => {
                    run.failure(problem);
                    ops.push((true, f64::INFINITY));
                }
            }
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
        if round == 0 {
            let stats = engine.warehouse.stats();
            let commits = measured.len().max(1) as f64;
            run.layers
                .insert("store.fsyncs_per_commit", stats.fsyncs as f64 / commits);
            run.layers
                .insert("store.window_occupancy", stats.mean_window_occupancy());
            prepare_recovery(engine, tail, &mut run)?;
            run.updates = inputs.batches.iter().map(|batch| batch.len() as u64).sum();
        } else {
            engine.close();
        }
        let (_, elapsed) = Engine::open(&recovery, config, tracer.clone())?;
        run.recovery_ms.push(ms(elapsed));
        if Instant::now() >= deadline {
            break;
        }
    }
    Ok(run)
}

/// Turns a round's store into the recovery store: a checkpoint, then a
/// journal of fixed length. Checks that a cold reopen gives back the
/// document as last published, and records the bytes on disk.
fn prepare_recovery(
    engine: Engine,
    tail: &[Vec<UpdateTransaction>],
    run: &mut Run,
) -> Result<(), Failure> {
    engine
        .warehouse
        .checkpoint(DOC)
        .map_err(|e| fail("checkpoint", e))?;
    for batch in tail {
        engine
            .warehouse
            .commit_batch(DOC, batch, None)
            .map_err(|e| fail("commit", e))?;
    }
    let journal = engine
        .warehouse
        .journal_length(DOC)
        .map_err(|e| fail("journal length", e))?;
    run.check(
        "the journal holds the batches committed since the checkpoint",
        (journal == tail.len())
            .then_some(())
            .ok_or_else(|| format!("{journal} batches, {} committed", tail.len())),
    );
    let published = engine
        .warehouse
        .snapshot(DOC)
        .map_err(|e| fail("pin", e))?
        .fuzzy()
        .clone();
    let dir = engine.dir.clone();
    engine.close();
    run.stored_bytes = disk_bytes(&dir);
    let (reopened, _) = Engine::open(&dir, SessionConfig::default(), None)?;
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
    Ok(())
}

/// The traced run's table: per-update apply and inline simplify against
/// directory size.
pub fn size_table(inputs: &IngestInputs) -> Result<String, Failure> {
    let mut out = format!(
        "inline simplify against directory size ({SIZE_PROBE_UPDATES} updates each, medians)\n{:>8} {:>8} {:>12} {:>14}\n",
        "people", "nodes", "apply_us", "simplify_us"
    );
    for ((xml, updates), people) in inputs.size_probe.iter().zip(SIZE_PROBE_PEOPLE) {
        let mut fuzzy =
            FuzzyTree::from_tree(parse_data_tree(xml).map_err(|e| fail("parse XML", e))?);
        let (mut apply, mut simplify) = (Vec::new(), Vec::new());
        for update in updates {
            let mut plain = fuzzy.clone();
            let started = Instant::now();
            update
                .apply_to_fuzzy_with(&mut plain, SimplifyPolicy::Never)
                .map_err(|e| fail("apply", e))?;
            let never = started.elapsed();
            let started = Instant::now();
            update
                .apply_to_fuzzy_with(&mut fuzzy, SimplifyPolicy::Inline)
                .map_err(|e| fail("apply", e))?;
            let inline = started.elapsed();
            apply.push(us(never));
            simplify.push(us(inline.saturating_sub(never)));
        }
        out.push_str(&format!(
            "{people:>8} {:>8} {:>12.1} {:>14.1}\n",
            fuzzy.node_count(),
            median(&apply),
            median(&simplify)
        ));
    }
    Ok(out)
}
