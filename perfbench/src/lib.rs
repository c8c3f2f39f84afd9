//! The pxml benchmark: three workloads that drive the warehouse through its
//! public API, measure what a user sees (end-to-end metrics) and, in a
//! separate traced run, where the time goes (per-layer metrics).
//!
//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! prints, as its last line, one JSON object with the metrics named in
//! `BENCHMARK.json`. It exits non-zero when an operation or output check
//! fails.

pub mod checks;
pub mod engine;
pub mod history;
pub mod ingest;
pub mod inputs;
pub mod report;
pub mod served;
pub mod stats;
pub mod timed;
pub mod trace;

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::Arc;

use engine::{fail, Failure};
use inputs::{HistoryInputs, IngestInputs, ServedInputs};
use report::{end_to_end, per_layer, result_line, self_time_table, tails, Metric, Run};
use stats::{median, ratio};
use trace::Tracer;

/// Processes an untraced run is split into, one after another, each
/// measuring for its share of `--seconds`; their samples are pooled, and
/// each operation keeps its best time over all of them.
pub const PARTS: u64 = 4;
/// Where runs keep their stores and write their spans, relative to the
/// working directory.
pub const WORK_DIR: &str = ".perfbench-work";

pub const WORKLOADS: [&str; 3] = ["ingest", "served_mix", "uncertain_history"];

pub const USAGE: &str = "usage: perfbench --workload <ingest|served_mix|uncertain_history> --seed <n> --seconds <s> --trace <0|1>";

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// Run as one part of an untraced run: measure and print the raw
    /// samples for the parent process to pool.
    pub part: bool,
}

impl Args {
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut parsed = Args {
            workload: String::new(),
            seed: 0,
            seconds: 10,
            trace: false,
            part: false,
        };
        let mut args = args.into_iter();
        while let Some(flag) = args.next() {
            let value = args
                .next()
                .ok_or_else(|| format!("`{flag}` needs a value"))?;
            let number = || {
                value
                    .parse::<u64>()
                    .map_err(|_| format!("`{flag}` takes a whole number, not `{value}`"))
            };
            match flag.as_str() {
                "--workload" => parsed.workload = value.clone(),
                "--seed" => parsed.seed = number()?,
                "--seconds" => parsed.seconds = number()?.max(1),
                "--trace" => parsed.trace = number()? != 0,
                "--part" => parsed.part = number()? != 0,
                _ => return Err(format!("unknown argument `{flag}`")),
            }
        }
        if !WORKLOADS.contains(&parsed.workload.as_str()) {
            return Err(format!("unknown workload `{}`", parsed.workload));
        }
        Ok(parsed)
    }
}

/// What a run prints last, and whether every operation and check passed.
pub struct Outcome {
    pub line: String,
    pub passed: bool,
}

/// Runs one workload with freshly generated inputs. Traced runs also return
/// the workload's own table for the log.
fn run_workload(
    args: &Args,
    seconds: u64,
    tracer: Option<Arc<Tracer>>,
    work: &Path,
) -> Result<(Run, String), Failure> {
    let traced = tracer.is_some();
    match args.workload.as_str() {
        "ingest" => {
            let inputs = IngestInputs::generate(args.seed);
            let run = ingest::run(&inputs, seconds, tracer, work)?;
            let table = if traced {
                ingest::size_table(&inputs)?
            } else {
                String::new()
            };
            Ok((run, table))
        }
        "served_mix" => {
            let inputs = ServedInputs::generate(args.seed);
            Ok((served::run(&inputs, seconds, tracer, work)?, String::new()))
        }
        _ => {
            let inputs = HistoryInputs::generate(args.seed);
            let run = history::run(&inputs, seconds, tracer, work)?;
            let table = if traced {
                history::length_table(&inputs)?
            } else {
                String::new()
            };
            Ok((run, table))
        }
    }
}

/// Median latency of the workload's measured operation, milliseconds:
/// commits on `ingest`, queries elsewhere.
fn primary_ms(workload: &str, run: &Run) -> f64 {
    if workload == "ingest" {
        median(&run.commit_ms)
    } else {
        median(&run.query_ms)
    }
}

fn print_metrics(metrics: &[Metric]) {
    for (name, value, unit) in metrics {
        println!("{name} {value} {unit}");
    }
}

/// Runs one part of an untraced run in a child process and reads back its
/// samples.
fn run_part(args: &Args) -> Result<Run, Failure> {
    let seconds = (args.seconds / PARTS).max(1).to_string();
    let seed = args.seed.to_string();
    let exe = std::env::current_exe().map_err(|e| fail("locate the benchmark", e))?;
    let output = Command::new(exe)
        .args(["--workload", &args.workload, "--seed", &seed])
        .args(["--seconds", &seconds, "--trace", "0", "--part", "1"])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| fail("run a part", e))?;
    if !output.status.success() {
        return Err(format!("a part exited with {}", output.status));
    }
    Run::from_lines(&String::from_utf8_lossy(&output.stdout))
}

pub fn execute(args: &Args) -> Result<Outcome, Failure> {
    let work = PathBuf::from(WORK_DIR).join(&args.workload);
    if args.part {
        let (run, _) = run_workload(args, args.seconds, None, &work)?;
        let _ = std::fs::remove_dir_all(&work);
        return Ok(Outcome {
            line: run.to_lines(),
            passed: true,
        });
    }
    let (runs, metrics) = if args.trace {
        // Half the time untraced, half traced: the ratio of their median
        // latencies is the tracing overhead.
        let half = (args.seconds / 2).max(1);
        let (plain, _) = run_workload(args, half, None, &work.join("untraced"))?;
        let tracer = Arc::new(Tracer::default());
        let (traced, table) = run_workload(args, half, Some(tracer.clone()), &work.join("traced"))?;
        println!("== {} seed {} traced ({half} s)", args.workload, args.seed);
        print!("{}", self_time_table(&tracer));
        print!("{table}");
        println!("tracing overhead (end-to-end metrics, untraced -> traced)");
        let all = |run: &Run| [end_to_end(run), tails(run)].concat();
        for ((name, untraced, unit), (_, traced, _)) in all(&plain).into_iter().zip(all(&traced)) {
            println!("  {name:<24} {untraced:>12.4} -> {traced:>12.4} {unit}");
        }
        let overhead = ratio(
            primary_ms(&args.workload, &traced),
            primary_ms(&args.workload, &plain),
        ) - 1.0;
        let spans = PathBuf::from(WORK_DIR)
            .join(format!("{}-seed{}.spans.jsonl", args.workload, args.seed));
        tracer
            .write_jsonl(&spans)
            .map_err(|e| fail("write spans", e))?;
        println!(
            "{} spans written to {}",
            tracer.span_count(),
            spans.display()
        );
        let metrics = per_layer(&traced, &tracer, overhead);
        (vec![plain, traced], metrics)
    } else {
        let mut run = Run::default();
        for _ in 0..PARTS {
            run.absorb(run_part(args)?);
        }
        print_metrics(&tails(&run));
        let metrics = end_to_end(&run);
        (vec![run], metrics)
    };
    let _ = std::fs::remove_dir_all(&work);
    let attempted = runs.iter().map(|r| r.attempted).sum::<u64>().max(1);
    let failed = runs.iter().map(|r| r.failed).sum::<u64>();
    for problem in runs.iter().flat_map(|r| &r.problems) {
        eprintln!("perfbench: {problem}");
    }
    let correct = runs.iter().all(|r| r.problems.is_empty());
    Ok(Outcome {
        line: result_line(correct, attempted, failed, &metrics),
        passed: correct && failed == 0,
    })
}
