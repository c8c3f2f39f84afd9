//! Runs one workload of the benchmark and prints its metrics; see
//! `BENCHMARK.json` at the repository root and `perfbench/README.md`.

use std::process::ExitCode;

fn main() -> ExitCode {
    let args = match pxml_perfbench::Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(problem) => {
            eprintln!("perfbench: {problem}\n{}", pxml_perfbench::USAGE);
            return ExitCode::from(2);
        }
    };
    match pxml_perfbench::execute(&args) {
        Ok(outcome) => {
            println!("{}", outcome.line);
            if outcome.passed {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(problem) => {
            eprintln!("perfbench: {problem}");
            ExitCode::FAILURE
        }
    }
}
