//! `BENCHMARK.json` at the repository root names exactly the metrics the
//! program prints, in the same order.

use pxml_perfbench::report::{end_to_end, per_layer, Run};
use pxml_perfbench::trace::Tracer;

/// The metric names listed under `key`, in file order.
fn listed(json: &str, key: &str) -> Vec<String> {
    let start = json
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no `{key}`"));
    let section = &json[start..];
    let end = section.find(']').expect("the list closes");
    section[..end]
        .split("\"name\": \"")
        .skip(1)
        .map(|rest| rest.split('"').next().expect("a quoted name").to_string())
        .collect()
}

#[test]
fn benchmark_json_lists_the_printed_metrics() {
    let json = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let run = Run::default();
    let names = |metrics: Vec<(&str, f64, &str)>| -> Vec<String> {
        metrics
            .into_iter()
            .map(|(name, _, _)| name.to_string())
            .collect()
    };
    assert_eq!(listed(&json, "end_to_end"), names(end_to_end(&run)));
    assert_eq!(
        listed(&json, "per_layer"),
        names(per_layer(&run, &Tracer::default(), 0.0))
    );
}
