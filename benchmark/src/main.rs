//! The repo benchmark (see `benchmark/README.md`).
//!
//! Two ways in, one measuring path:
//!
//! * `--workload <name> --seed <n> --seconds <s> --trace <0|1>` runs one
//!   workload in this process and prints, as the last line of stdout, one
//!   JSON object `{"correct", "attempted", "failed", "metrics"}` — the
//!   end-to-end metrics untraced, the per-layer metrics traced.
//! * without `--workload` it runs every workload that way, each in a child
//!   process of its own (exactly what an outside driver does), prints
//!   every metric by name and unit, and writes `benchmark/out/latest.json`;
//!   `--aa` does it twice and compares the two sets against the bounds.
//!
//! `BENCHMARK.json` gates the three `virt-*` workloads. The three wall
//! workloads run from here too and report what they have, but on a shared
//! guest they repeat within no bound, so nothing is held to them.

mod check;
mod counters;
mod gen;
mod hist;
mod json;
mod ladder;
mod metrics;
mod pin;
mod probe;
mod serve;
mod span;
mod virt;
mod wall;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use json::Json;
use workloads::{Args, Report};

const USAGE: &str = "usage: benchmark/run.sh [--seed N] [--seconds S] [--trace] [--only <workload>] [--aa] [--smoke]
       benchmark/run.sh --workload <name> --seed N --seconds S --trace <0|1>";

struct Cli {
    workload: Option<String>,
    /// Internal: run one phase of `workload` (see `workloads::phase`).
    phase: Option<String>,
    only: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    aa: bool,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        phase: None,
        only: None,
        seed: 1,
        seconds: 10,
        trace: false,
        aa: false,
    };
    let mut it = args.iter().peekable();
    let number = |flag: &str, v: Option<&String>| -> Result<u64, String> {
        v.and_then(|v| v.parse().ok())
            .ok_or_else(|| format!("{flag} needs a whole number\n{USAGE}"))
    };
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => {
                cli.workload = Some(it.next().ok_or("--workload needs a name")?.clone())
            }
            "--phase" => cli.phase = Some(it.next().ok_or("--phase needs a name")?.clone()),
            "--only" => cli.only = Some(it.next().ok_or("--only needs a name")?.clone()),
            "--seed" => cli.seed = number("--seed", it.next())?,
            "--seconds" => cli.seconds = number("--seconds", it.next())?,
            // `--trace` alone switches tracing on; `--trace 0|1` sets it.
            "--trace" => {
                cli.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--aa" => cli.aa = true,
            "--smoke" => cli.seconds = 1,
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    if !(1..=60).contains(&cli.seconds) {
        return Err("--seconds must be between 1 and 60".into());
    }
    for name in cli.workload.iter().chain(&cli.only) {
        if !workloads::NAMES.contains(&name.as_str()) {
            return Err(format!(
                "unknown workload `{name}` (one of {:?})",
                workloads::NAMES
            ));
        }
    }
    Ok(cli)
}

/// Where traces and `latest.json` go: `benchmark/out/`, beside the
/// package the binary was built from.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// The contract's result object.
fn result_json(report: &Report) -> Json {
    let metrics = report
        .metrics
        .iter()
        .map(|&(name, value)| {
            let unit = metrics::unit_of(name).expect("every reported metric is in the vocabulary");
            (
                name.to_string(),
                Json::obj(vec![
                    ("value", Json::Num(value)),
                    ("unit", Json::Str(unit.into())),
                ]),
            )
        })
        .collect();
    Json::obj(vec![
        ("correct", Json::Bool(report.failed == 0)),
        ("attempted", Json::Num(report.attempted as f64)),
        ("failed", Json::Num(report.failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ])
}

fn run_one(workload: &str, cli: &Cli) -> ExitCode {
    let args = Args {
        seed: cli.seed,
        seconds: cli.seconds,
        trace: cli.trace,
    };
    if let Some(phase) = &cli.phase {
        return match workloads::phase(phase, workload, &args, &out_dir()) {
            Ok(result) => {
                println!("{result}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("{e}");
                ExitCode::from(2)
            }
        };
    }
    let report = match workloads::run(workload, &args, &out_dir()) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    for note in &report.notes {
        println!("{note}");
    }
    for &(name, value) in &report.metrics {
        println!(
            "metric {workload} {name} = {value} {}",
            metrics::unit_of(name).unwrap_or("?")
        );
    }
    println!(
        "checks {workload}: attempted={} failed={} failed_frac={}",
        report.attempted,
        report.failed,
        report.failed as f64 / report.attempted.max(1) as f64
    );
    println!("{}", result_json(&report));
    if report.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Run this program again with `argv`, echo what it prints (indented) and
/// parse its last line.
pub fn respawn(argv: &[String]) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(argv)
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    let text = String::from_utf8_lossy(&out.stdout);
    let mut lines: Vec<&str> = text.lines().collect();
    let last = lines.pop().unwrap_or("");
    for line in lines {
        println!("  {line}");
    }
    let result = Json::parse(last).map_err(|e| format!("child {argv:?}: no result line ({e})"))?;
    if !out.status.success() {
        return Err(format!("child {argv:?} failed ({}): {last}", out.status));
    }
    Ok(result)
}

/// One workload in a child process, as an outside driver runs it.
fn child(workload: &str, cli: &Cli, trace: bool) -> Result<Json, String> {
    let argv = [
        "--workload",
        workload,
        "--seed",
        &cli.seed.to_string(),
        "--seconds",
        &cli.seconds.to_string(),
        "--trace",
        if trace { "1" } else { "0" },
    ];
    let result = respawn(&argv.map(String::from))?;
    if result.get("correct").and_then(Json::as_bool) != Some(true) {
        return Err(format!("{workload}: incorrect result {result}"));
    }
    Ok(result)
}

fn value_of(result: &Json, name: &str) -> f64 {
    result
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Json::as_f64)
        .unwrap_or(f64::NAN)
}

/// One full set: every selected workload untraced, then (with `--trace`)
/// traced. Returns `(workload, untraced, traced)` per workload.
fn full_set(cli: &Cli, failures: &mut Vec<String>) -> Vec<(String, Json, Option<Json>)> {
    let mut set = Vec::new();
    for name in workloads::NAMES {
        if cli.only.as_deref().is_some_and(|only| only != name) {
            continue;
        }
        println!("== {name} (seed {}, {} s)", cli.seed, cli.seconds);
        let plain = child(name, cli, false).unwrap_or_else(|e| {
            failures.push(e);
            Json::Null
        });
        let traced = cli.trace.then(|| {
            println!("== {name} traced");
            child(name, cli, true).unwrap_or_else(|e| {
                failures.push(e);
                Json::Null
            })
        });
        set.push((name.to_string(), plain, traced));
    }
    set
}

/// The bounds of `BENCHMARK.json`, for the A/A verdicts.
fn bounds() -> Vec<(String, bool, f64)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let Ok(text) = std::fs::read_to_string(path) else {
        return Vec::new();
    };
    let Ok(spec) = Json::parse(&text) else {
        return Vec::new();
    };
    spec.get("end_to_end")
        .map(Json::as_arr)
        .unwrap_or_default()
        .iter()
        .filter_map(|m| {
            Some((
                m.get("name")?.as_str()?.to_string(),
                m.get("better")?.as_str()? == "higher",
                m.get("bound")?.as_f64()?,
            ))
        })
        .collect()
}

fn run_all(cli: &Cli) -> ExitCode {
    let mut failures = Vec::new();
    let first = full_set(cli, &mut failures);
    let second = cli.aa.then(|| full_set(cli, &mut failures));

    println!(
        "\n== end-to-end metrics (seed {}, {} s per workload)",
        cli.seed, cli.seconds
    );
    for (workload, plain, _) in &first {
        // A wall workload reports the ones it has; it is not gated.
        let gated = if workload.starts_with("virt-") {
            "gated"
        } else {
            "reported"
        };
        for (name, unit) in metrics::END_TO_END {
            let value = value_of(plain, name);
            if !value.is_nan() {
                println!("{workload:<16} {name:<18} {value:>16.4} {unit:<6} {gated}");
            }
        }
    }
    if cli.trace {
        println!("\n== per-layer metrics (traced pass, a quarter of the length; 0 = layer not exercised)");
        for (workload, _, traced) in &first {
            let traced = traced.as_ref().expect("--trace ran a traced pass");
            for (name, unit) in metrics::PER_LAYER {
                println!(
                    "{workload:<16} {name:<46} {:>16.4} {unit}",
                    value_of(traced, name)
                );
            }
        }
        // The ladder is measured in every traced run; print the median.
        let ladder_median = |name: &str| {
            let values: Vec<f64> = first
                .iter()
                .filter_map(|(_, _, t)| t.as_ref())
                .map(|t| value_of(t, name))
                .filter(|v| v.is_finite())
                .collect();
            if values.is_empty() {
                f64::NAN
            } else {
                hist::median(&values)
            }
        };
        println!();
        for line in workloads::ladder_lines(ladder_median) {
            println!("{line}");
        }
        // The two virtual workloads must separate the contention layer.
        let traced_of = |w: &str| {
            first
                .iter()
                .find(|(n, _, _)| n == w)
                .and_then(|(_, _, t)| t.as_ref())
        };
        if let (Some(hot), Some(flat)) = (traced_of("virt-hot"), traced_of("virt-flat")) {
            let speedup = value_of(hot, "baseline.euno_speedup");
            let (a_hot, a_flat) = (
                value_of(hot, "htm.aborts_per_op"),
                value_of(flat, "htm.aborts_per_op"),
            );
            // Written so that a missing (NaN) value fails the check.
            let ok = speedup > 1.0 && a_flat < a_hot / 10.0;
            println!(
                "design check: baseline.euno_speedup={speedup:.3} (>1), htm.aborts_per_op flat={a_flat:.5} < hot={a_hot:.5}/10: {}",
                if ok { "PASS" } else { "FAIL" }
            );
            if !ok {
                failures.push(
                    "design check: the virtual workloads do not separate the contention layer"
                        .into(),
                );
            }
        }
    }

    if let Some(second) = &second {
        println!("\n== A/A: two sets of runs of the same build");
        let bounds = bounds();
        for ((workload, a, _), (_, b, _)) in first.iter().zip(second) {
            for (name, higher_better, bound) in &bounds {
                let (x, y) = (value_of(a, name), value_of(b, name));
                if x.is_nan() && y.is_nan() {
                    continue; // a wall workload has no such metric
                }
                // How much worse the second set reads than the first.
                let worse = if *higher_better {
                    (x - y) / x
                } else {
                    (y - x) / x
                };
                let gated = workload.starts_with("virt-");
                let virtual_metric = gated && name != "setup_s";
                let pass = if virtual_metric {
                    x.to_bits() == y.to_bits()
                } else {
                    // The wall workloads are demoted: shown, never failed.
                    !gated || worse.abs() <= *bound
                };
                println!(
                    "{workload:<16} {name:<18} {x:>16.4} {y:>16.4} {:>+8.2} %  {} ({})",
                    worse * 100.0,
                    match (gated, pass) {
                        (false, _) => "----",
                        (true, true) => "PASS",
                        (true, false) => "FAIL",
                    },
                    if virtual_metric {
                        "bit-equal".to_string()
                    } else if gated {
                        format!("bound {:.0} %", bound * 100.0)
                    } else {
                        "not gated".to_string()
                    },
                );
                if !pass {
                    failures.push(format!("A/A: {workload} {name} {x} vs {y}"));
                }
            }
        }
    }

    let latest = Json::obj(vec![
        ("seed", Json::Num(cli.seed as f64)),
        ("seconds", Json::Num(cli.seconds as f64)),
        (
            "workloads",
            Json::Obj(
                first
                    .iter()
                    .map(|(w, plain, traced)| {
                        let traced = traced.clone().unwrap_or(Json::Null);
                        (
                            w.clone(),
                            Json::obj(vec![("untraced", plain.clone()), ("traced", traced)]),
                        )
                    })
                    .collect(),
            ),
        ),
        (
            "failures",
            Json::Arr(failures.iter().cloned().map(Json::Str).collect()),
        ),
    ]);
    let path = out_dir().join("latest.json");
    let written = std::fs::create_dir_all(out_dir())
        .and_then(|()| std::fs::write(&path, format!("{latest}\n")));
    match written {
        Ok(()) => println!("\nwrote {}", path.display()),
        Err(e) => failures.push(format!("writing {}: {e}", path.display())),
    }
    for f in &failures {
        println!("FAIL {f}");
    }
    if failures.is_empty() {
        println!("all checks passed");
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    match &cli.workload {
        Some(workload) => run_one(workload, &cli),
        None => run_all(&cli),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cli(args: &[&str]) -> Result<Cli, String> {
        parse_cli(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn trace_takes_an_optional_value() {
        assert!(cli(&["--trace"]).unwrap().trace);
        assert!(cli(&["--trace", "1", "--seed", "3"]).unwrap().trace);
        let c = cli(&[
            "--workload",
            "virt-hot",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "0",
        ])
        .unwrap();
        assert!(!c.trace && c.seed == 7 && c.workload.as_deref() == Some("virt-hot"));
        assert_eq!(cli(&["--smoke"]).unwrap().seconds, 1);
        assert!(cli(&["--workload", "nope"]).is_err());
        assert!(cli(&["--seconds", "0"]).is_err());
        assert!(cli(&["--bogus"]).is_err());
    }

    /// `BENCHMARK.json` and the code must name the same workloads and
    /// metrics with the same units.
    #[test]
    fn benchmark_json_matches_the_vocabulary() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .unwrap();
        let spec = Json::parse(&text).unwrap();
        let names = |section: &str| -> Vec<(String, String)> {
            spec.get(section)
                .unwrap()
                .as_arr()
                .iter()
                .map(|m| {
                    let unit = m
                        .get("unit")
                        .and_then(Json::as_str)
                        .unwrap_or("")
                        .to_string();
                    (m.get("name").unwrap().as_str().unwrap().to_string(), unit)
                })
                .collect()
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end"), own(&metrics::END_TO_END));
        assert_eq!(names("per_layer"), own(&metrics::PER_LAYER));
        // The gated workloads are the virtual ones; the wall workloads run
        // from `run.sh` only.
        let workloads: Vec<String> = names("workloads").into_iter().map(|(n, _)| n).collect();
        let virt: Vec<&str> = workloads::NAMES
            .into_iter()
            .filter(|w| w.starts_with("virt-"))
            .collect();
        assert_eq!(workloads, virt);
        assert_eq!(spec.get("run_seconds").and_then(Json::as_f64), Some(10.0));
    }
}
