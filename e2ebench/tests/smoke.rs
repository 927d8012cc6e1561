//! Every workload at `--quick` sizes, untraced and traced: the output
//! checks pass, and the result line carries exactly the metric names
//! `BENCHMARK.json` declares.

use std::process::Command;

#[path = "../src/json.rs"]
#[allow(dead_code)]
mod json;

use json::Value;

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
        .expect("BENCHMARK.json parses")
}

fn names(doc: &Value, section: &str) -> Vec<String> {
    doc.get(section)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no `{section}` list"))
        .iter()
        .map(|entry| {
            entry
                .get("name")
                .and_then(Value::as_str)
                .expect("every entry is named")
                .to_string()
        })
        .collect()
}

fn quick_run(workload: &str, trace: &str) -> Value {
    let out = Command::new(env!("CARGO_BIN_EXE_infilter-e2ebench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "3",
            "--trace",
            trace,
            "--quick",
        ])
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().unwrap_or_default();
    let result = json::parse(line).unwrap_or_else(|e| panic!("{workload}: result line: {e}"));
    assert!(
        out.status.success(),
        "{workload} --trace {trace} exited {:?}: {}\n{}",
        out.status.code(),
        stdout.lines().next().unwrap_or_default(),
        String::from_utf8_lossy(&out.stderr)
    );
    result
}

fn metric_names(result: &Value) -> Vec<String> {
    result
        .get("metrics")
        .and_then(Value::as_object)
        .expect("result line has metrics")
        .iter()
        .map(|(name, metric)| {
            let value = metric.get("value").and_then(Value::as_f64);
            assert!(
                value.is_some_and(f64::is_finite),
                "{name} has no finite value"
            );
            assert!(
                metric.get("unit").and_then(Value::as_str).is_some(),
                "{name} has no unit"
            );
            name.clone()
        })
        .collect()
}

#[test]
fn every_workload_emits_exactly_the_declared_metrics_and_passes_its_checks() {
    let doc = benchmark_json();
    let workloads = names(&doc, "workloads");
    assert_eq!(
        workloads,
        [
            "legal_cruise",
            "spoof_flood",
            "adoption_churn",
            "small_datagrams"
        ]
    );
    for workload in &workloads {
        for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
            let result = quick_run(workload, trace);
            assert_eq!(
                result.get("correct").and_then(Value::as_bool),
                Some(true),
                "{workload} --trace {trace}"
            );
            assert!(result
                .get("attempted")
                .and_then(Value::as_f64)
                .is_some_and(|n| n >= 1.0));
            assert_eq!(result.get("failed").and_then(Value::as_f64), Some(0.0));
            assert_eq!(
                result.as_object().map(|members| members.len()),
                Some(4),
                "exactly correct, attempted, failed, metrics"
            );
            assert_eq!(
                metric_names(&result),
                names(&doc, section),
                "{workload} --trace {trace}"
            );
        }
    }
}

#[test]
fn the_committed_benchmark_json_is_what_the_harness_describes() {
    let out = Command::new(env!("CARGO_BIN_EXE_infilter-e2ebench"))
        .arg("--describe")
        .output()
        .expect("the benchmark binary runs");
    let described = String::from_utf8_lossy(&out.stdout).into_owned();
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    assert_eq!(
        committed, described,
        "regenerate with `infilter-e2ebench --describe > BENCHMARK.json`"
    );
    let doc = benchmark_json();
    assert_eq!(
        doc.as_object()
            .map(|m| m.iter().map(|(k, _)| k.as_str()).collect::<Vec<_>>()),
        Some(vec![
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ])
    );
    for entry in doc
        .get("workloads")
        .and_then(Value::as_array)
        .expect("workloads")
    {
        let why = entry.get("why").and_then(Value::as_str).expect("why");
        assert!(why.len() <= 200 && !why.contains('\n'), "{why}");
    }
}

#[test]
fn a_bare_copy_of_the_benchmark_refuses_to_run() {
    // Unknown workloads and missing arguments exit non-zero without a
    // result line (the contract's "directory with nothing to measure" case
    // is cargo failing on the missing path dependencies, before this binary
    // exists; this covers the binary's own refusals).
    for args in [&["--workload", "nope"][..], &[][..], &["--trace", "2"][..]] {
        let out = Command::new(env!("CARGO_BIN_EXE_infilter-e2ebench"))
            .args(args)
            .output()
            .expect("the benchmark binary runs");
        assert!(!out.status.success(), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
