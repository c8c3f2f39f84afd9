//! The embedded warehouse as the workloads drive it: commits, merged
//! queries and cold reopens over `FsBackend`, timed from outside.
//!
//! Untraced, each call is timed around the public engine function and
//! nothing else runs. Traced, the backend is wrapped in a [`TimedBackend`],
//! each call is a span, and the layers inside the engine call are timed by
//! shadow calls on a clone of the snapshot the call ran against (see
//! [`crate::trace`]).

use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pxml_core::{FuzzyTree, SimplifyPolicy, UpdateTransaction};
use pxml_event::Bdd;
use pxml_query::{MatchStrategy, Pattern};
use pxml_store::{FsBackend, FsOptions, StorageBackend};
use pxml_warehouse::{MergedQuery, SessionConfig, Warehouse};

use crate::stats::us;
use crate::timed::TimedBackend;
use crate::trace::{Finished, Tracer};

/// A failed operation, as text.
pub type Failure = String;

pub fn fail(context: &str, error: impl std::fmt::Display) -> Failure {
    format!("{context}: {error}")
}

pub struct Engine {
    pub warehouse: Warehouse,
    pub dir: PathBuf,
    config: SessionConfig,
    tracer: Option<Arc<Tracer>>,
}

impl Engine {
    /// Opens (recovering whatever `dir` holds) and returns the engine with
    /// the wall time of the open.
    pub fn open(
        dir: &Path,
        config: SessionConfig,
        tracer: Option<Arc<Tracer>>,
    ) -> Result<(Engine, Duration), Failure> {
        let span = tracer
            .as_ref()
            .map(|tracer| tracer.enter("warehouse.open", None));
        let start = Instant::now();
        let fs = {
            let _store = tracer
                .as_ref()
                .map(|tracer| tracer.enter("store.open", None));
            FsBackend::with_options(
                dir,
                FsOptions {
                    commit: config.commit,
                    ..FsOptions::default()
                },
            )
            .map_err(|e| fail("open store", e))?
        };
        let backend: Arc<dyn StorageBackend> = match &tracer {
            Some(tracer) => Arc::new(TimedBackend::new(Arc::new(fs), tracer.clone())),
            None => Arc::new(fs),
        };
        let warehouse = Warehouse::with_backend(backend, config).map_err(|e| fail("recover", e))?;
        let elapsed = start.elapsed();
        drop(span);
        Ok((
            Engine {
                warehouse,
                dir: dir.to_path_buf(),
                config,
                tracer,
            },
            elapsed,
        ))
    }

    /// Commits one batch; returns its wall time.
    pub fn commit(
        &self,
        doc: &str,
        batch: &[UpdateTransaction],
        request: u64,
    ) -> Result<Duration, Failure> {
        let Some(tracer) = &self.tracer else {
            let start = Instant::now();
            self.warehouse
                .commit_batch(doc, batch, None)
                .map_err(|e| fail("commit", e))?;
            return Ok(start.elapsed());
        };
        let base = self.warehouse.snapshot(doc).map_err(|e| fail("pin", e))?;
        let span = tracer.enter("warehouse.commit", Some(request));
        let stats = self.warehouse.commit_batch(doc, batch, None);
        let finished = span.finish();
        let stats = stats.map_err(|e| fail("commit", e))?;
        let after = self.warehouse.snapshot(doc).map_err(|e| fail("pin", e))?;
        let (before, now) = (
            base.fuzzy().tree().chunk_copies(),
            after.fuzzy().tree().chunk_copies(),
        );
        // A slot compaction rebuilds the arena and restarts its counter.
        if now >= before {
            tracer.sample("tree.chunk_copies", (now - before) as f64);
        }
        for update in &stats.updates {
            tracer.sample("core.matches", update.match_count as f64);
            tracer.sample("core.applied", update.applied_matches as f64);
            tracer.sample("core.duplicated", update.duplicated_nodes as f64);
        }
        tracer.sample("tree.nodes", after.fuzzy().node_count() as f64);
        tracer.sample("tree.slots", after.fuzzy().tree().slot_count() as f64);
        shadow_commit(tracer, finished, base.fuzzy(), batch, self.config.simplify);
        Ok(finished.duration)
    }

    /// Runs a merged query; returns its wall time and answer.
    pub fn query(
        &self,
        doc: &str,
        pattern: &Pattern,
        request: u64,
    ) -> Result<(Duration, MergedQuery), Failure> {
        let Some(tracer) = &self.tracer else {
            let start = Instant::now();
            let answer = self
                .warehouse
                .query_merged(doc, pattern)
                .map_err(|e| fail("query", e))?;
            return Ok((start.elapsed(), answer));
        };
        let span = tracer.enter("warehouse.query", Some(request));
        let answer = self.warehouse.query_merged(doc, pattern);
        let finished = span.finish();
        let answer = answer.map_err(|e| fail("query", e))?;
        let snapshot = self.warehouse.snapshot(doc).map_err(|e| fail("pin", e))?;
        if snapshot.seq() == answer.seq {
            shadow_query(tracer, finished, snapshot.fuzzy(), pattern);
        }
        Ok((finished.duration, answer))
    }

    /// Drains the group committer and closes the engine.
    pub fn close(self) {
        self.warehouse.group_barrier();
    }
}

/// Replays a committed batch on a clone of the pre-commit snapshot, timing
/// for each update the pattern match, the apply without simplification, and
/// the apply under the session policy. The match, the rest of the plain
/// apply, and what simplification adds are charged to `query.match`,
/// `core.apply` and `core.simplify`; the whole plain apply, match included,
/// is the `core.apply_us` sample.
pub fn shadow_commit(
    tracer: &Tracer,
    parent: Finished,
    base: &FuzzyTree,
    batch: &[UpdateTransaction],
    policy: SimplifyPolicy,
) {
    let mut working = base.clone();
    for update in batch {
        let matched_at = Instant::now();
        black_box(
            update
                .pattern()
                .find_matches_with(working.tree(), MatchStrategy::Indexed),
        );
        let matching = matched_at.elapsed();
        let mut unsimplified = working.clone();
        let applied_at = Instant::now();
        let never = update.apply_to_fuzzy_with(&mut unsimplified, SimplifyPolicy::Never);
        let apply = applied_at.elapsed();
        let simplified_at = Instant::now();
        let inline = update.apply_to_fuzzy_with(&mut working, policy);
        let full = simplified_at.elapsed();
        if never.is_err() || inline.is_err() {
            return;
        }
        tracer.sample("core.apply_us", us(apply));
        tracer.attribute("query.match", parent, matched_at, matching);
        tracer.attribute(
            "core.apply",
            parent,
            applied_at,
            apply.saturating_sub(matching),
        );
        tracer.attribute(
            "core.simplify",
            parent,
            simplified_at,
            full.saturating_sub(apply),
        );
    }
}

/// Replays a merged query on the snapshot it ran against: pattern match,
/// fuzzy query (match plus conditions), BDD merge and selection probability.
pub fn shadow_query(tracer: &Tracer, parent: Finished, fuzzy: &FuzzyTree, pattern: &Pattern) {
    let matched_at = Instant::now();
    black_box(pattern.find_matches_with(fuzzy.tree(), MatchStrategy::Indexed));
    let matching = matched_at.elapsed();
    let queried_at = Instant::now();
    let result = fuzzy.query(pattern);
    let query = queried_at.elapsed();
    let merged_at = Instant::now();
    black_box(result.merged_answers(fuzzy.events()));
    let merge = merged_at.elapsed();
    let selected_at = Instant::now();
    black_box(result.selection_probability(fuzzy.events()));
    let selection = selected_at.elapsed();
    tracer.sample("core.query_us", us(query));
    tracer.attribute("query.match", parent, matched_at, matching);
    tracer.attribute(
        "core.query",
        parent,
        queried_at,
        query.saturating_sub(matching),
    );
    tracer.attribute("event.merge", parent, merged_at, merge);
    tracer.attribute("event.selection", parent, selected_at, selection);
    tracer.sample("event.bdd_nodes", bdd_nodes(fuzzy, pattern) as f64);
    tracer.sample("event.events", fuzzy.event_count() as f64);
    tracer.sample("query.matches", result.len() as f64);
}

/// Size of the BDD of the disjunction of a query's match conditions.
pub fn bdd_nodes(fuzzy: &FuzzyTree, pattern: &Pattern) -> usize {
    let result = fuzzy.query(pattern);
    let mut bdd = Bdd::new();
    bdd.any_of(result.matches.iter().map(|m| &m.condition));
    bdd.node_count()
}

/// Total bytes of the regular files under `dir`.
pub fn disk_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|entry| match entry.metadata() {
            Ok(meta) if meta.is_dir() => disk_bytes(&entry.path()),
            Ok(meta) => meta.len(),
            Err(_) => 0,
        })
        .sum()
}

/// A fresh, empty directory.
pub fn fresh_dir(dir: &Path) -> Result<PathBuf, Failure> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| fail("clear work dir", e))?;
    }
    std::fs::create_dir_all(dir).map_err(|e| fail("create work dir", e))?;
    Ok(dir.to_path_buf())
}

/// Checks that every probability of a merged answer lies in [0, 1].
pub fn probabilities_in_range(answer: &MergedQuery) -> bool {
    let ok = |p: f64| (0.0..=1.0).contains(&p);
    ok(answer.selection) && answer.answers.iter().all(|(_, p)| ok(*p))
}
