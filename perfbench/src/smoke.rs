//! Tiny-scale instances of every workload: each prints every named metric
//! with its unit, and runs its correctness checks.
//!
//! `cargo test --release --manifest-path perfbench/Cargo.toml`

use crate::report::{self, Scale, END_TO_END, WORKLOADS};

fn names_and_units(outcome: &report::Outcome) -> Vec<(String, &'static str)> {
    outcome
        .metrics
        .iter()
        .map(|(name, _, unit)| (name.clone(), *unit))
        .collect()
}

#[test]
fn every_workload_prints_every_end_to_end_metric_and_passes_its_checks() {
    for workload in WORKLOADS {
        let outcome = report::run(workload, Scale::Tiny, 7, 0.0, false);
        let expected: Vec<(String, &str)> = END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), *u))
            .collect();
        assert_eq!(names_and_units(&outcome), expected, "{workload}");
        for (name, value, _) in &outcome.metrics {
            assert!(
                value.is_finite() && *value > 0.0,
                "{workload}: {name} = {value}"
            );
        }
        assert!(outcome.correct, "{workload}: {:?}", outcome.notes);
        assert!(outcome.attempted > 0, "{workload}");
        assert!(
            outcome.notes.iter().any(|n| n.contains("checks passed")),
            "{workload}: {:?}",
            outcome.notes
        );
        let json = outcome.json();
        assert!(json.starts_with("{\"correct\": true, \"attempted\": "));
        for (name, _) in &expected {
            assert!(
                json.contains(&format!("\"{name}\": {{\"value\": ")),
                "{name}"
            );
        }
    }
}

#[test]
fn every_workload_prints_every_per_layer_metric_when_traced() {
    for workload in WORKLOADS {
        let outcome = report::run(workload, Scale::Tiny, 7, 0.0, true);
        assert_eq!(
            names_and_units(&outcome),
            report::per_layer_names(),
            "{workload}"
        );
        assert!(outcome.correct, "{workload}: {:?}", outcome.notes);
        let get = |name: &str| {
            outcome
                .metrics
                .iter()
                .find(|(n, _, _)| n == name)
                .map(|(_, v, _)| *v)
                .expect("metric present")
        };
        assert!(get("trace.spans") > 0.0, "{workload}");
        assert!(get("trace.coverage") > 0.5, "{workload}");
    }
}

#[test]
fn same_seed_episodes_reach_the_same_state_and_other_seeds_do_not() {
    let a = report::run("chain-backlog", Scale::Tiny, 1, 0.0, false);
    let b = report::run("chain-backlog", Scale::Tiny, 2, 0.0, false);
    let commitment = |o: &report::Outcome| {
        o.notes
            .iter()
            .find_map(|n| n.split("state commitment ").nth(1).map(str::to_string))
            .expect("commitment noted")
    };
    assert!(a.correct && b.correct);
    assert_ne!(commitment(&a), commitment(&b));
}

#[test]
fn benchmark_json_names_the_metrics_this_binary_prints() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let entries = |key: &str| -> Vec<(String, String)> {
        let start = json.find(&format!("\"{key}\"")).expect("section present");
        let end = json[start..].find(']').expect("section closes") + start;
        json[start..end]
            .split("\"name\": \"")
            .skip(1)
            .map(|rest| {
                let name = rest.split('"').next().expect("name").to_string();
                let unit = rest
                    .split("\"unit\": \"")
                    .nth(1)
                    .and_then(|u| u.split('"').next())
                    .unwrap_or("")
                    .to_string();
                (name, unit)
            })
            .collect()
    };
    let workloads: Vec<String> = entries("workloads").into_iter().map(|(n, _)| n).collect();
    assert_eq!(workloads, WORKLOADS);
    let e2e: Vec<(String, String)> = END_TO_END
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(entries("end_to_end"), e2e);
    let layers: Vec<(String, String)> = report::per_layer_names()
        .into_iter()
        .map(|(n, u)| (n, u.to_string()))
        .collect();
    assert_eq!(entries("per_layer"), layers);
}
