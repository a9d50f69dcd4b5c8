//! The benchmark's own tests: its manifest matches what it prints, its
//! percentile helper refuses thin tails, and a miniature of every
//! workload passes every correctness check.
//!
//! Run with `cargo test --manifest-path perfserve/Cargo.toml`.

use perfserve::run::{checked_iteration, run, Options, END_TO_END, PER_LAYER};
use perfserve::stats::percentile;
use perfserve::workload::Workload;
use serde::Value;
use std::path::PathBuf;

fn scratch(tag: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("perfserve-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn manifest() -> Value {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json is readable");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
    serde::field(v.as_map().expect("an object"), key).unwrap_or_else(|| panic!("no {key}"))
}

fn names_and_units(v: &Value) -> Vec<(String, String)> {
    v.as_seq()
        .expect("a list")
        .iter()
        .map(|m| {
            (
                field(m, "name").as_str().unwrap().to_string(),
                field(m, "unit").as_str().unwrap().to_string(),
            )
        })
        .collect()
}

fn own(list: &[(&str, &str)]) -> Vec<(String, String)> {
    list.iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

#[test]
fn manifest_names_exactly_what_the_benchmark_prints() {
    let m = manifest();
    let workloads: Vec<&str> = field(&m, "workloads")
        .as_seq()
        .unwrap()
        .iter()
        .map(|w| field(w, "name").as_str().unwrap())
        .collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, ours);
    assert_eq!(names_and_units(field(&m, "end_to_end")), own(&END_TO_END));
    assert_eq!(names_and_units(field(&m, "per_layer")), own(&PER_LAYER));
    for metric in field(&m, "end_to_end").as_seq().unwrap() {
        let bound = field(metric, "bound").as_f64().unwrap();
        assert!(bound > 0.0 && bound <= 0.25, "bound {bound} out of range");
    }
}

#[test]
fn tail_percentiles_need_ten_samples_beyond_them() {
    let samples: Vec<f64> = (0..99).map(f64::from).collect();
    assert!(percentile(&samples, 0.9).is_err());
    assert!(percentile(&samples, 0.5).is_ok());
    let samples: Vec<f64> = (0..100).map(f64::from).collect();
    assert!(percentile(&samples, 0.9).is_ok());
    assert!(percentile(&samples, 0.99).is_err());
}

#[test]
fn miniature_workloads_pass_every_check() {
    for workload in Workload::ALL {
        let shape = workload.mini();
        let opts = Options {
            workload,
            shape,
            seed: 7,
            seconds: 0.0,
            trace: false,
            dir: scratch(workload.name()),
        };
        let (it, refs, _) = checked_iteration(&opts, 0, "iter-0")
            .unwrap_or_else(|e| panic!("{}: {e}", workload.name()));
        // Every admitted cell has its batch reference.
        assert_eq!(refs.len(), it.cells.len());
        let (attempted, failed) = it.ledger.totals();
        assert!(attempted > 0);
        // Only ctl_mix removes cells, and every removed cell comes
        // back on resume.
        let removes = it.ledger.verbs.get("remove").copied().unwrap_or((0, 0));
        assert_eq!(failed, removes.1);
        assert_eq!(removes.0, shape.cycles as u64);
        assert_eq!(it.resurrected.len() as u64, removes.1);
        std::fs::remove_dir_all(&opts.dir).unwrap();
    }
}

#[test]
fn miniature_runs_print_every_metric() {
    for (trace, workload, names) in [
        (false, Workload::PhasedFleet, &END_TO_END[..]),
        (true, Workload::CtlMix, &PER_LAYER[..]),
    ] {
        let opts = Options {
            workload,
            shape: workload.mini(),
            seed: 3,
            seconds: 0.0,
            trace,
            dir: scratch(&format!("run-{}", u8::from(trace))),
        };
        let outcome = run(&opts).unwrap();
        let printed: Vec<(String, String)> = outcome
            .metrics
            .iter()
            .map(|(n, _, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(printed, own(names));
        let line: Value = serde_json::from_str(&outcome.json()).unwrap();
        assert_eq!(field(&line, "correct"), &Value::Bool(true));
        for (name, value, _) in &outcome.metrics {
            assert!(value.is_finite(), "{name} = {value}");
        }
        assert!(!opts.dir.exists(), "the run removes its directory");
    }
}
