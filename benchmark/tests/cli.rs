//! The command-line contract, end to end: run the built binary as an
//! outside driver does and check what it prints and how it exits.

#[path = "../src/json.rs"]
#[allow(dead_code)]
mod json;

use json::Json;
use std::process::Command;

fn run(args: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_euno-benchmark"))
        .args(args)
        .output()
        .expect("spawn the benchmark");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

fn spec() -> Json {
    let text =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json")).unwrap();
    Json::parse(&text).unwrap()
}

fn names(spec: &Json, section: &str) -> Vec<String> {
    let list = spec.get(section).unwrap().as_arr();
    list.iter()
        .map(|m| m.get("name").unwrap().as_str().unwrap().to_string())
        .collect()
}

/// A smoke-length run must print exactly the contract's result object as
/// its last line: the end-to-end metrics untraced (none of them 0), the
/// per-layer metrics traced. A wall workload is not gated and reports the
/// end-to-end metrics it has (`want` names them).
fn check_result_line(workload: &str, trace: &str, section: &str, want: Option<&[&str]>) {
    let (ok, stdout) = run(&[
        "--workload",
        workload,
        "--seed",
        "2",
        "--seconds",
        "1",
        "--trace",
        trace,
    ]);
    assert!(ok, "{workload} --trace {trace} failed:\n{stdout}");
    let result = Json::parse(stdout.lines().last().unwrap()).unwrap();
    let keys: Vec<&str> = result.fields().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(result.get("correct").unwrap().as_bool(), Some(true));
    assert!(result.get("attempted").unwrap().as_f64().unwrap() >= 1.0);
    assert_eq!(result.get("failed").unwrap().as_f64(), Some(0.0));
    let metrics = result.get("metrics").unwrap();
    let got: Vec<String> = metrics.fields().iter().map(|(k, _)| k.clone()).collect();
    let listed = names(&spec(), section);
    match want {
        None => assert_eq!(got, listed, "{workload} --trace {trace}"),
        Some(want) => {
            assert_eq!(got, want, "{workload} --trace {trace}");
            assert!(want.iter().all(|w| listed.iter().any(|l| l == w)));
        }
    }
    for (name, m) in metrics.fields() {
        let keys: Vec<&str> = m.fields().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["value", "unit"], "{name}");
        let value = m.get("value").unwrap().as_f64().unwrap();
        assert!(value.is_finite(), "{name}");
        assert!(
            section != "end_to_end" || value > 0.0,
            "{workload} {name} must never be 0"
        );
    }
}

#[test]
fn untraced_virtual_run_prints_the_end_to_end_metrics() {
    check_result_line("virt-flat", "0", "end_to_end", None);
}

#[test]
fn untraced_served_run_prints_the_end_to_end_metrics() {
    let want = ["throughput_ops_s", "lat_p50_ns", "setup_s"];
    check_result_line("serve-open", "0", "end_to_end", Some(&want));
}

#[test]
fn traced_run_prints_every_per_layer_metric_and_writes_the_span_file() {
    check_result_line("virt-scan-churn", "1", "per_layer", None);
    let trace = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/out/trace_virt-scan-churn.jsonl"
    );
    let text = std::fs::read_to_string(trace).unwrap();
    let mut names = std::collections::BTreeSet::new();
    for line in text.lines() {
        let span = Json::parse(line).unwrap();
        assert!(span.get("end").unwrap().as_f64() >= span.get("start").unwrap().as_f64());
        names.insert(span.get("name").unwrap().as_str().unwrap().to_string());
    }
    for want in [
        "op.get",
        "op.put",
        "op.delete",
        "op.scan",
        "htm.episode",
        "core.op",
        "batch.apply",
        "serve.rtt1",
    ] {
        assert!(names.contains(want), "no `{want}` span in {names:?}");
    }
    // Its partner on the wall clock leaves a span file of its own.
    let partner = concat!(env!("CARGO_MANIFEST_DIR"), "/out/trace_serve-sat.jsonl");
    let text = std::fs::read_to_string(partner).unwrap();
    assert!(text.lines().any(|l| l.contains("\"inflight\"")));
}

#[test]
fn bad_arguments_exit_non_zero_without_a_result_line() {
    for args in [
        &["--workload", "nope"][..],
        &["--seconds", "0"],
        &["--frobnicate"],
    ] {
        let (ok, stdout) = run(args);
        assert!(!ok && stdout.is_empty(), "{args:?} -> {stdout}");
    }
}
