//! Every metric the command prints is declared in `BENCHMARK.json`, with
//! the same name and unit, and every declared metric is printed.

mod common;

use common::Json;
use trialbench::report::{MetricDef, END_TO_END, PER_LAYER};
use trialbench::runner::tiny;
use trialbench::workload::{Tamper, Workload};

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    common::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
}

fn declared(section: &str) -> Vec<(String, String)> {
    benchmark_json()
        .get(section)
        .arr()
        .iter()
        .map(|m| {
            (
                m.get("name").str().to_string(),
                m.get("unit").str().to_string(),
            )
        })
        .collect()
}

fn table(defs: &[MetricDef]) -> Vec<(String, String)> {
    defs.iter()
        .map(|d| (d.name.to_string(), d.unit.to_string()))
        .collect()
}

fn printed(result_line: &str) -> Vec<(String, String)> {
    common::parse(result_line)
        .get("metrics")
        .fields()
        .iter()
        .map(|(name, m)| (name.clone(), m.get("unit").str().to_string()))
        .collect()
}

#[test]
fn tables_match_benchmark_json() {
    assert_eq!(table(END_TO_END), declared("end_to_end"));
    assert_eq!(table(PER_LAYER), declared("per_layer"));
    let names: Vec<String> = benchmark_json()
        .get("workloads")
        .arr()
        .iter()
        .map(|w| w.get("name").str().to_string())
        .collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(names, ours);
}

#[test]
fn every_printed_metric_is_declared() {
    for workload in Workload::ALL {
        for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
            let out = tiny(workload, 3, trace, Tamper::None);
            let last = out.result.lines().last().expect("a result line");
            assert_eq!(
                printed(last),
                declared(section),
                "{workload:?} trace={trace}"
            );
            let json = common::parse(last);
            assert_eq!(
                json.get("correct"),
                &Json::Bool(true),
                "{workload:?}: {:?}",
                out.lines
            );
            for (name, m) in json.get("metrics").fields() {
                assert!(
                    matches!(m.get("value"), Json::Num(v) if v.is_finite()),
                    "{workload:?} {name} is not a number"
                );
            }
        }
    }
}
