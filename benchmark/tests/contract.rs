//! The generators are deterministic, every workload is failure-free at
//! smoke size in both modes (which runs every gate, the parity gate
//! included), and the names the program emits are the names
//! `BENCHMARK.json` declares.

use edgstr_benchmark::metrics::{END_TO_END, PER_LAYER};
use edgstr_benchmark::run::{self, Budget};
use edgstr_benchmark::workloads::{generate, SMOKE_DIVISOR, WORKLOADS};
use serde_json::Value;
use std::path::Path;

#[test]
fn same_seed_same_stream_other_seed_other_stream() {
    for spec in &WORKLOADS {
        let a = generate(spec, 7, SMOKE_DIVISOR);
        let b = generate(spec, 7, SMOKE_DIVISOR);
        assert_eq!(a, b, "{}: same seed must give the same stream", spec.name);
        assert_eq!(
            format!("{a:?}"),
            format!("{b:?}"),
            "{}: byte-identical",
            spec.name
        );
        let c = generate(spec, 8, SMOKE_DIVISOR);
        assert_ne!(a.requests, c.requests, "{}: seed must matter", spec.name);
        assert_eq!(a.requests.len(), spec.n / SMOKE_DIVISOR);
    }
}

#[test]
fn every_workload_passes_its_gates_at_smoke_size() {
    let budget = Budget {
        seconds: 1.0,
        smoke: true,
    };
    for spec in &WORKLOADS {
        let stream = generate(spec, 3, SMOKE_DIVISOR);
        let e2e = run::end_to_end(spec, &stream, &budget)
            .unwrap_or_else(|e| panic!("{} end to end: {e}", spec.name));
        assert!(e2e.attempted >= stream.requests.len());
        let rows = e2e.metrics.ordered(&END_TO_END, false).unwrap();
        assert!(rows.iter().all(|(_, _, v)| *v > 0.0), "{rows:?}");

        let trace =
            Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("trace_{}.jsonl", spec.name));
        let traced = run::traced(spec, &stream, &trace)
            .unwrap_or_else(|e| panic!("{} traced: {e}", spec.name));
        traced.metrics.ordered(&PER_LAYER, true).unwrap();
    }
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn declared(doc: &Value, section: &str, with_unit: bool) -> Vec<(String, String)> {
    doc[section]
        .as_array()
        .unwrap_or_else(|| panic!("{section} is an array"))
        .iter()
        .map(|entry| {
            let name = entry["name"].as_str().expect("name").to_string();
            let unit = if with_unit {
                entry["unit"].as_str().expect("unit").to_string()
            } else {
                String::new()
            };
            (name, unit)
        })
        .collect()
}

#[test]
fn names_match_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    let doc: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");

    let owned = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(declared(&doc, "end_to_end", true), owned(&END_TO_END));
    assert_eq!(declared(&doc, "per_layer", true), owned(&PER_LAYER));
    let workloads: Vec<String> = WORKLOADS.iter().map(|w| w.name.to_string()).collect();
    let listed: Vec<String> = declared(&doc, "workloads", false)
        .into_iter()
        .map(|(n, _)| n)
        .collect();
    assert_eq!(listed, workloads);
    for (entry, spec) in doc["workloads"].as_array().unwrap().iter().zip(&WORKLOADS) {
        assert_eq!(entry["why"].as_str(), Some(spec.why), "{}", spec.name);
        assert!(spec.why.len() <= 200);
    }

    let mut names: Vec<&str> = END_TO_END
        .iter()
        .chain(&PER_LAYER)
        .map(|(n, _)| *n)
        .chain(WORKLOADS.iter().map(|w| w.name))
        .collect();
    assert!(names.iter().all(|n| valid_name(n)), "{names:?}");
    names.sort_unstable();
    let before = names.len();
    names.dedup();
    assert_eq!(names.len(), before, "a name is used once");
    assert!(END_TO_END.contains(&("setup_s", "s")));
}
