//! figures — every virtual-clock figure and table of the evaluation, in
//! one process, from the table in `euno_bench::figures`:
//! `figures [NAME…] [--out <dir>] [--check] [flags]` (`--help` lists them).
//! Each figure prints under a `=== <stem> ===` section. `--out` writes
//! `<dir>/<stem>.csv` and `BENCH_<id>.json`. `--check` writes nothing: it
//! compares each CSV with `--out`'s (default `results/`, recorded at
//! `EUNO_BENCH_SCALE=0.3`), lists every moved row by `system` and `x`, and
//! exits 1 if any moved — on the virtual clock that is a behaviour change.

use std::process::ExitCode;

use euno_bench::common::{csv_text, emit, Cli, Point};
use euno_bench::figures::{find, Figure, FIGURES};

fn main() -> ExitCode {
    let names: Vec<&str> = FIGURES.iter().map(|f| f.stem).collect();
    let cli = Cli::parse(&names);
    let figures: Vec<&Figure> = if cli.names.is_empty() {
        FIGURES.iter().collect()
    } else {
        let known = |n: &String| find(n).expect("the command line admits table names only");
        cli.names.iter().map(known).collect()
    };
    let dir = cli.out.as_deref().unwrap_or("results");
    let mut moved = 0;
    for fig in &figures {
        println!("=== {} ===", fig.stem);
        let points = fig.run(&cli);
        if cli.check {
            moved += usize::from(check(fig, &points, dir));
        } else if cli.out.is_some() {
            let written = std::fs::create_dir_all(dir).and_then(|()| {
                let csv = format!("{dir}/{}.csv", fig.stem);
                emit(fig.id, fig.title, &csv, &points)
            });
            if let Err(e) = written {
                eprintln!("FAIL writing {}: {e}", fig.stem);
                return ExitCode::FAILURE;
            }
        }
    }
    if !cli.check {
        return ExitCode::SUCCESS;
    }
    let total = figures.len();
    if moved == 0 {
        println!("{dir}/: all {total} virtual-clock CSVs regenerate byte-identically");
        ExitCode::SUCCESS
    } else {
        println!("{dir}/: {moved} of {total} CSVs differ from what is recorded");
        ExitCode::FAILURE
    }
}

/// Compare the figure's CSV with the recorded one and list what moved;
/// `true` if anything did.
fn check(fig: &Figure, points: &[Point], dir: &str) -> bool {
    let path = format!("{dir}/{}.csv", fig.stem);
    let recorded = std::fs::read_to_string(&path).unwrap_or_default();
    let fresh = csv_text(points);
    if recorded == fresh {
        println!("{path}: identical");
        return false;
    }
    println!("{path}: MOVED");
    // Rows come out in a fixed order, so line N is the same cell in both.
    let old: Vec<&str> = recorded.lines().collect();
    let new: Vec<&str> = fresh.lines().collect();
    let columns: Vec<&str> = new[0].split(',').collect();
    for (i, row) in new.iter().enumerate() {
        let f: Vec<&str> = row.split(',').collect();
        match old.get(i) {
            Some(o) if o == row => {}
            Some(o) => {
                let was: Vec<&str> = o.split(',').collect();
                let moved: Vec<&str> = (0..columns.len())
                    .filter(|&c| was.get(c) != f.get(c))
                    .map(|c| columns[c])
                    .collect();
                println!(
                    "    {:<16} x={:<20} {} -> {} Mops/s  moved: {}",
                    f[0],
                    f[1],
                    was.get(5).unwrap_or(&"-"),
                    f[5],
                    moved.join(" ")
                );
            }
            None => println!("    {:<16} x={:<20} (new row) {} Mops/s", f[0], f[1], f[5]),
        }
    }
    if old.len() > new.len() {
        println!("    {} recorded rows are gone", old.len() - new.len());
    }
    true
}
