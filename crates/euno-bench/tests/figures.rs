//! The figure table, every row of it, at a size a debug build runs in
//! seconds; and the `figures` command line.

use std::process::Command;

use euno_bench::common::{csv_text, report, Cli};
use euno_bench::figures::{find, FIGURES};
use euno_metrics::Counter;
use euno_sim::validate_report;

/// A few ops a thread (and as few warm-up ops) over a few dozen keys.
fn small() -> Cli {
    let mut cli = Cli::default();
    cli.ops_override = Some(8);
    cli.keys_override = Some(64);
    cli
}

fn header(csv: &str) -> &str {
    csv.lines().next().unwrap_or_default()
}

#[test]
fn every_figure_emits_its_declared_rows_the_recorded_header_and_a_valid_report() {
    let cli = small();
    for fig in &FIGURES {
        let points = fig.run(&cli);
        assert_eq!(points.len(), fig.rows(), "{}: rows", fig.stem);
        let recorded = format!(
            "{}/../../results/{}.csv",
            env!("CARGO_MANIFEST_DIR"),
            fig.stem
        );
        let recorded = std::fs::read_to_string(&recorded).expect(&recorded);
        assert_eq!(
            header(&csv_text(&points)),
            header(&recorded),
            "{}: CSV header",
            fig.stem
        );
        let text = report(fig.id, fig.title, &points).to_json().to_pretty();
        validate_report(&text).unwrap_or_else(|e| panic!("{}: {e}", fig.stem));
    }
}

/// `results/` holds a report for every figure of the table, each passing
/// the schema, and nothing the table does not write: besides the reports,
/// only the table's CSVs, `README.md` and `all_figures.log`.
#[test]
fn every_recorded_report_validates_and_has_a_producer() {
    let dir = format!("{}/../../results", env!("CARGO_MANIFEST_DIR"));
    let mut recorded = Vec::new();
    for entry in std::fs::read_dir(&dir).expect(&dir) {
        let name = entry.unwrap().file_name().into_string().unwrap();
        let Some(id) = name
            .strip_prefix("BENCH_")
            .and_then(|n| n.strip_suffix(".json"))
        else {
            let produced = match name.strip_suffix(".csv") {
                Some(stem) => FIGURES.iter().any(|f| f.stem == stem),
                None => name == "README.md" || name == "all_figures.log",
            };
            assert!(produced, "{name}: the figure table does not write it");
            continue;
        };
        let text = std::fs::read_to_string(format!("{dir}/{name}")).unwrap();
        validate_report(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(
            FIGURES.iter().any(|f| f.id == id),
            "{name}: the figure table does not write it"
        );
        recorded.push(id.to_string());
    }
    for id in FIGURES.iter().map(|f| f.id) {
        assert!(
            recorded.iter().any(|r| r == id),
            "results/BENCH_{id}.json is missing"
        );
    }
}

/// Warm-up operations are rolled back out of the metric shard as well as
/// out of `ctx.stats`: on HTM-B+Tree, which runs one region per
/// operation, every measured get of YCSB-C ends in exactly one commit or
/// one fallback, and nothing else is counted.
#[test]
fn ycsb_warm_up_stays_out_of_the_stage_counters() {
    let points = find("ycsb_suite").unwrap().run(&small());
    let c = points
        .iter()
        .find(|p| p.system == "HTM-B+Tree" && p.x.starts_with("YCSB-C"))
        .unwrap();
    let counts = &c.metrics.counts;
    assert!(c.cfg.warmup_ops > 0);
    assert_eq!(
        counts[Counter::Commits] + counts[Counter::Fallbacks],
        c.metrics.total_ops
    );
}

fn figures(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(args)
        .output()
        .unwrap();
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into(),
    )
}

#[test]
fn an_unknown_flag_exits_2_with_the_usage_text() {
    for flag in ["--no-such-flag", "--csv"] {
        let (code, stderr) = figures(&[flag]);
        assert_eq!(code, Some(2));
        assert!(
            stderr.contains(&format!("unknown argument {flag}")),
            "{stderr}"
        );
        assert!(stderr.contains("--out <dir>"), "{stderr}");
    }
}

#[test]
fn a_figure_not_in_the_table_exits_2_with_the_usage_text() {
    let (code, stderr) = figures(&["fig01_motivation", "fig99_nothing"]);
    assert_eq!(code, Some(2));
    assert!(
        stderr.contains("unknown argument fig99_nothing"),
        "{stderr}"
    );
    assert!(stderr.contains("fig14_timeline"), "{stderr}");
}
