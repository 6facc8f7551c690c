//! Every workload, run through the library in a tiny shape: no failed
//! unit, every declared metric present with its unit, a well-formed span
//! log — and a corrupted reference caught as a wrong answer.

use std::collections::HashSet;
use std::path::PathBuf;

use localwm_e2e_bench::{run, RunConfig, Shape, Workload, END_TO_END, PER_LAYER};
use serde::Value;

fn out_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("test output dir");
    dir
}

fn config(workload: Workload, trace: bool, dir: &str) -> RunConfig {
    RunConfig {
        workload,
        seed: 1,
        seconds: 0.2,
        trace,
        out_dir: out_dir(dir),
        shape: Shape::tiny(),
    }
}

fn assert_metrics(report: &localwm_e2e_bench::RunReport, declared: &[(&str, &str)]) {
    let got: Vec<(&str, &str)> = report
        .metrics
        .iter()
        .map(|m| (m.name.as_str(), m.unit.as_str()))
        .collect();
    assert_eq!(got, declared, "{}", report.config.workload.name());
    assert!(report.metrics.iter().all(|m| m.value.is_finite()));
}

/// Every line parses as a span whose parent, if any, is another span of
/// the file.
fn assert_span_log(path: &std::path::Path) {
    let text = std::fs::read_to_string(path).expect("span log");
    let mut ids = HashSet::new();
    let mut parents = Vec::new();
    for line in text.lines() {
        let v = serde_json::from_str_value(line).expect("span line is JSON");
        let int = |name: &str| match v.field(name) {
            Some(Value::Int(i)) => *i as u64,
            Some(Value::UInt(u)) => *u,
            other => panic!("span field {name}: {other:?} in {line}"),
        };
        let _ = int("trace");
        assert!(ids.insert(int("span")), "span ids are unique");
        match v.field("parent") {
            Some(Value::Null) => {}
            Some(_) => parents.push(int("parent")),
            None => panic!("span without a parent field: {line}"),
        }
        assert!(matches!(v.field("name"), Some(Value::Str(_))));
        let us = |name: &str| match v.field(name) {
            Some(Value::Float(f)) => *f,
            Some(Value::Int(i)) => *i as f64,
            Some(Value::UInt(u)) => *u as f64,
            other => panic!("span field {name}: {other:?}"),
        };
        assert!(us("end_us") >= us("start_us"));
        assert!(us("self_us") >= 0.0);
    }
    assert!(!ids.is_empty(), "spans were recorded");
    for p in parents {
        assert!(ids.contains(&p), "parent {p} resolves");
    }
}

#[test]
fn every_workload_runs_clean_in_a_tiny_shape() {
    for w in Workload::ALL {
        let report = run(&config(w, false, &format!("smoke-{}", w.name()))).expect("run");
        assert_eq!(report.failed, 0, "{}: {:?}", w.name(), report.failures);
        assert!(
            report.attempted >= 1000,
            "{}: p99 has 10 samples beyond it",
            w.name()
        );
        assert!(report.compared > 0, "{}: answers were compared", w.name());
        assert_metrics(&report, &END_TO_END);
        let error_rate = report.extra.iter().find(|m| m.name == "error_rate");
        assert_eq!(error_rate.map(|m| m.value), Some(0.0));
        assert!(report.result_line().starts_with("{\"correct\":true,"));

        let traced =
            run(&config(w, true, &format!("smoke-{}-trace", w.name()))).expect("traced run");
        assert_eq!(traced.failed, 0, "{}: {:?}", w.name(), traced.failures);
        assert_metrics(&traced, &PER_LAYER);
        assert_span_log(traced.spans.as_deref().expect("span log path"));
    }
}

#[test]
fn a_corrupted_reference_is_caught_as_a_wrong_answer() {
    let mut cfg = config(Workload::AnalyzeClosed, false, "smoke-corrupt");
    cfg.shape.corrupt_reference = true;
    let report = run(&cfg).expect("run");
    assert_eq!(report.failed, 1, "{:?}", report.failures);
    assert!(!report.correct());
    assert!(
        report.failures[0].contains("wrong answer"),
        "{:?}",
        report.failures
    );
    assert!(report.result_line().starts_with("{\"correct\":false,"));
}
