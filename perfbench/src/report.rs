//! What a workload run measured, and the metrics derived from it.

use std::collections::BTreeMap;

use crate::stats::{mean, median, quantile, ratio};
use crate::trace::Tracer;

/// The raw measurements of one workload run.
#[derive(Debug, Default)]
pub struct Run {
    /// Operations attempted in the measured loop, plus one per output check.
    pub attempted: u64,
    /// Operations that failed or were shed, plus one per failed check.
    pub failed: u64,
    /// What went wrong, for the log.
    pub problems: Vec<String>,
    /// Wall time of each set-up repetition, seconds.
    pub setup_s: Vec<f64>,
    pub commit_ms: Vec<f64>,
    pub query_ms: Vec<f64>,
    /// The measured loop repeats the same operations on the same state, one
    /// repetition per round. These hold, per operation in loop order, its
    /// best latency over the rounds, milliseconds: every commit, every
    /// query, and every operation of the loop (commits and queries
    /// interleaved as they ran). On a shared host the load of other
    /// machines comes and goes within seconds (on a 2-vCPU virtual machine
    /// it slowed the same fixed computation by up to 2x); an operation's
    /// best time is the one that load disturbed least. An operation that
    /// never succeeded reads infinity.
    pub commit_best: Vec<f64>,
    pub query_best: Vec<f64>,
    pub loop_best: Vec<f64>,
    /// Open loops, whose pace is the offered rate: successful operations
    /// per second of each round.
    pub ops_rounds: Vec<f64>,
    /// Wall time of each cold reopen, milliseconds.
    pub recovery_ms: Vec<f64>,
    /// On-disk bytes at the end of the run and the updates committed.
    pub stored_bytes: u64,
    pub updates: u64,
    /// Per-layer values measured outside the tracer (wire, generator,
    /// durability counters).
    pub layers: BTreeMap<&'static str, f64>,
}

impl Run {
    /// Records an output check.
    pub fn check(&mut self, name: &str, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(problem) = outcome {
            self.failed += 1;
            self.problems
                .push(format!("check `{name}` failed: {problem}"));
        }
    }

    /// Records one round: each operation's latency in loop order, with
    /// whether it was a commit, infinity for a failed one. A closed loop's
    /// throughput follows from its operations' best times.
    pub fn round(&mut self, ops: &[(bool, f64)], closed_loop: bool) {
        let of_kind = |commit: bool| -> Vec<f64> {
            ops.iter()
                .filter(|(c, _)| *c == commit)
                .map(|(_, ms)| *ms)
                .collect()
        };
        keep_best(&mut self.commit_best, &of_kind(true));
        keep_best(&mut self.query_best, &of_kind(false));
        if closed_loop {
            let all: Vec<f64> = ops.iter().map(|(_, ms)| *ms).collect();
            keep_best(&mut self.loop_best, &all);
        }
        for &(commit, ms) in ops.iter().filter(|(_, ms)| ms.is_finite()) {
            if commit {
                self.commit_ms.push(ms);
            } else {
                self.query_ms.push(ms);
            }
        }
    }

    /// Records a failed operation.
    pub fn failure(&mut self, problem: String) {
        self.failed += 1;
        if self.problems.len() < 16 {
            self.problems.push(problem);
        }
    }

    /// Pools another run's measurements into this one.
    pub fn absorb(&mut self, other: Run) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.problems.extend(other.problems);
        self.setup_s.extend(other.setup_s);
        self.commit_ms.extend(other.commit_ms);
        self.query_ms.extend(other.query_ms);
        keep_best(&mut self.commit_best, &other.commit_best);
        keep_best(&mut self.query_best, &other.query_best);
        keep_best(&mut self.loop_best, &other.loop_best);
        self.ops_rounds.extend(other.ops_rounds);
        self.recovery_ms.extend(other.recovery_ms);
        self.stored_bytes += other.stored_bytes;
        self.updates += other.updates;
    }

    /// The end-to-end measurements as `key value…` lines, for a part
    /// process to hand to its parent ([`Run::from_lines`] reads them).
    pub fn to_lines(&self) -> String {
        let list =
            |values: &[f64]| -> String { values.iter().map(|v| format!(" {v:?}")).collect() };
        let mut out = format!(
            "attempted {}\nfailed {}\nstored_bytes {}\nupdates {}\n",
            self.attempted, self.failed, self.stored_bytes, self.updates
        );
        out.push_str(&format!("setup_s{}\n", list(&self.setup_s)));
        out.push_str(&format!("commit_ms{}\n", list(&self.commit_ms)));
        out.push_str(&format!("query_ms{}\n", list(&self.query_ms)));
        out.push_str(&format!("commit_best{}\n", list(&self.commit_best)));
        out.push_str(&format!("query_best{}\n", list(&self.query_best)));
        out.push_str(&format!("loop_best{}\n", list(&self.loop_best)));
        out.push_str(&format!("ops_rounds{}\n", list(&self.ops_rounds)));
        out.push_str(&format!("recovery_ms{}", list(&self.recovery_ms)));
        for problem in &self.problems {
            out.push_str(&format!("\nproblem {}", problem.replace('\n', " ")));
        }
        out
    }

    /// Reads the lines [`Run::to_lines`] wrote.
    pub fn from_lines(text: &str) -> Result<Run, String> {
        let mut run = Run::default();
        for line in text.lines() {
            let (key, rest) = line.split_once(' ').unwrap_or((line, ""));
            if key == "problem" {
                run.problems.push(rest.to_string());
                continue;
            }
            let bad = || format!("unreadable part output line `{line}`");
            let count = || rest.trim().parse::<u64>().map_err(|_| bad());
            let values = || {
                rest.split_whitespace()
                    .map(|v| v.parse::<f64>().map_err(|_| bad()))
                    .collect::<Result<Vec<f64>, String>>()
            };
            match key {
                "attempted" => run.attempted = count()?,
                "failed" => run.failed = count()?,
                "stored_bytes" => run.stored_bytes = count()?,
                "updates" => run.updates = count()?,
                "setup_s" => run.setup_s = values()?,
                "commit_ms" => run.commit_ms = values()?,
                "query_ms" => run.query_ms = values()?,
                "commit_best" => run.commit_best = values()?,
                "query_best" => run.query_best = values()?,
                "loop_best" => run.loop_best = values()?,
                "ops_rounds" => run.ops_rounds = values()?,
                "recovery_ms" => run.recovery_ms = values()?,
                _ => return Err(bad()),
            }
        }
        Ok(run)
    }
}

/// One named metric value.
pub type Metric = (&'static str, f64, &'static str);

/// The best of repeated measurements of the same work (a cold reopen).
pub fn best(values: &[f64]) -> f64 {
    values.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// Folds one repetition's per-operation latencies into the best so far.
pub fn keep_best(best: &mut Vec<f64>, latest: &[f64]) {
    if latest.is_empty() {
        return;
    }
    if best.is_empty() {
        best.extend_from_slice(latest);
    } else {
        best.truncate(latest.len());
        for (kept, &ms) in best.iter_mut().zip(latest) {
            *kept = kept.min(ms);
        }
    }
}

/// Operations per second of a loop whose operations each took their best
/// time, or, for an open loop, of its median round.
fn ops_per_s(run: &Run) -> f64 {
    if run.loop_best.is_empty() {
        median(&run.ops_rounds)
    } else {
        ratio(run.loop_best.len() as f64 * 1e3, run.loop_best.iter().sum())
    }
}

/// The end-to-end metrics, in `BENCHMARK.json` order.
pub fn end_to_end(run: &Run) -> Vec<Metric> {
    vec![
        ("commit_p50_ms", median(&run.commit_best), "ms"),
        ("query_p50_ms", median(&run.query_best), "ms"),
        ("ops_per_s", ops_per_s(run), "1/s"),
        ("recovery_ms", best(&run.recovery_ms), "ms"),
        (
            "stored_bytes_per_update",
            ratio(run.stored_bytes as f64, run.updates as f64),
            "bytes",
        ),
        ("setup_s", median(&run.setup_s), "s"),
    ]
}

/// The 99th percentiles, printed with every run but not bounded: their
/// run-to-run spread (up to half their median on `served_mix`, where they
/// are fsync tails) is wider than any bound a regression gate could use.
pub fn tails(run: &Run) -> Vec<Metric> {
    vec![
        ("commit_p99_ms", quantile(&run.commit_ms, 0.99), "ms"),
        ("query_p99_ms", quantile(&run.query_ms, 0.99), "ms"),
    ]
}

/// Layers whose self time the traced run reports.
pub const LAYERS: [&str; 6] = ["server", "warehouse", "core", "query", "event", "store"];

/// The per-layer metrics, in `BENCHMARK.json` order. Metrics of a layer the
/// workload does not exercise read 0.
pub fn per_layer(run: &Run, tracer: &Tracer, overhead: f64) -> Vec<Metric> {
    let span = |name: &str| median(&tracer.durations_us(name));
    let sample_mean = |name: &str| mean(&tracer.samples(name));
    let sample_median = |name: &str| median(&tracer.samples(name));
    let last = |name: &str| tracer.samples(name).last().copied().unwrap_or(0.0);
    let layer = |name: &str| run.layers.get(name).copied().unwrap_or(0.0);
    let matches: f64 = tracer.samples("core.matches").iter().sum();
    let applied: f64 = tracer.samples("core.applied").iter().sum();
    vec![
        ("core.apply_us", sample_median("core.apply_us"), "us"),
        ("core.simplify_us", span("core.simplify"), "us"),
        ("query.match_us", span("query.match"), "us"),
        (
            "tree.chunk_copies_per_commit",
            sample_mean("tree.chunk_copies"),
            "count",
        ),
        (
            "warehouse.commit_self_us",
            median(&tracer.self_times_us("warehouse.commit")),
            "us",
        ),
        ("store.checkpoint_us", span("store.checkpoint"), "us"),
        (
            "store.checkpoints",
            tracer.durations_us("store.checkpoint").len() as f64,
            "count",
        ),
        ("store.append_us", span("store.append"), "us"),
        (
            "store.fsyncs_per_commit",
            layer("store.fsyncs_per_commit"),
            "count",
        ),
        (
            "store.window_occupancy",
            layer("store.window_occupancy"),
            "count",
        ),
        (
            "store.journal_bytes_per_commit",
            sample_mean("store.journal_bytes"),
            "bytes",
        ),
        ("server.query_rtt_us", layer("server.query_rtt_us"), "us"),
        ("server.commit_rtt_us", layer("server.commit_rtt_us"), "us"),
        ("server.wire_us", layer("server.wire_us"), "us"),
        ("server.busy_sheds", layer("server.busy_sheds"), "count"),
        ("gen.sched_lag_p99_ms", layer("gen.sched_lag_p99_ms"), "ms"),
        ("event.merge_us", span("event.merge"), "us"),
        ("event.selection_us", span("event.selection"), "us"),
        ("event.bdd_nodes", sample_median("event.bdd_nodes"), "count"),
        ("event.events", sample_median("event.events"), "count"),
        ("core.query_us", sample_median("core.query_us"), "us"),
        ("query.matches", sample_median("query.matches"), "count"),
        ("store.load_us", span("store.load"), "us"),
        ("store.read_batches_us", span("store.read_batches"), "us"),
        ("core.replay_us", span("core.replay"), "us"),
        (
            "core.matches_per_update",
            sample_mean("core.matches"),
            "count",
        ),
        ("core.applied_ratio", ratio(applied, matches), "ratio"),
        (
            "core.duplicated_nodes_per_update",
            sample_mean("core.duplicated"),
            "count",
        ),
        ("tree.nodes", last("tree.nodes"), "count"),
        ("tree.slots", last("tree.slots"), "count"),
        ("trace.overhead_share", overhead, "ratio"),
    ]
}

/// The table of self time per layer, one row per kind of root span.
pub fn self_time_table(tracer: &Tracer) -> String {
    let mut rows: BTreeMap<&'static str, BTreeMap<&'static str, f64>> = BTreeMap::new();
    for ((root, layer), us) in tracer.self_time_by_root() {
        *rows.entry(root).or_default().entry(layer).or_insert(0.0) += us;
    }
    let mut out = format!("{:<18}", "self time (ms)");
    for layer in LAYERS {
        out.push_str(&format!("{layer:>11}"));
    }
    out.push_str(&format!("{:>11}\n", "total"));
    for (root, layers) in rows {
        let total: f64 = layers.values().sum();
        out.push_str(&format!("{root:<18}"));
        for layer in LAYERS {
            let us = layers.get(layer).copied().unwrap_or(0.0);
            out.push_str(&format!(
                "{:>7.1} {:>2.0}%",
                us / 1e3,
                100.0 * ratio(us, total)
            ));
        }
        out.push_str(&format!("{:>11.1}\n", total / 1e3));
    }
    out
}

/// The result line: one JSON object.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn part_lines_round_trip() {
        let run = Run {
            attempted: 12,
            failed: 1,
            problems: vec!["check `x` failed: two\nlines".into()],
            setup_s: vec![0.25, 0.5],
            commit_ms: vec![1.0 / 3.0, 7.25],
            query_ms: vec![],
            recovery_ms: vec![40.125],
            stored_bytes: 1234,
            updates: 10,
            query_best: vec![0.5, f64::INFINITY],
            ops_rounds: vec![999.5],
            ..Run::default()
        };
        let read = Run::from_lines(&run.to_lines()).unwrap();
        assert_eq!(read.attempted, 12);
        assert_eq!(read.failed, 1);
        assert_eq!(read.problems, vec!["check `x` failed: two lines"]);
        assert_eq!(read.setup_s, run.setup_s);
        assert_eq!(read.commit_ms, run.commit_ms);
        assert!(read.query_ms.is_empty());
        assert_eq!(read.recovery_ms, run.recovery_ms);
        assert_eq!((read.stored_bytes, read.updates), (1234, 10));
        assert_eq!(read.query_best, run.query_best);
        assert!(read.commit_best.is_empty());
        assert_eq!(read.ops_rounds, run.ops_rounds);
    }

    #[test]
    fn rounds_keep_each_operation_best_time() {
        let mut run = Run::default();
        run.round(&[(true, 3.0), (false, 1.0), (true, 5.0)], true);
        run.round(&[(true, 4.0), (false, 0.5), (true, f64::INFINITY)], true);
        assert_eq!(run.commit_best, vec![3.0, 5.0]);
        assert_eq!(run.query_best, vec![0.5]);
        assert_eq!(run.loop_best, vec![3.0, 0.5, 5.0]);
        assert_eq!(run.commit_ms, vec![3.0, 5.0, 4.0]);
        let mut other = Run::default();
        other.round(&[(true, 2.0), (false, 2.0), (true, 6.0)], true);
        run.absorb(other);
        assert_eq!(run.commit_best, vec![2.0, 5.0]);
        let metrics = end_to_end(&run);
        assert_eq!(metrics[0], ("commit_p50_ms", 3.5, "ms"));
        assert_eq!(metrics[2], ("ops_per_s", 3e3 / 7.5, "1/s"));
    }
}
