//! Stress-and-check driver: real threads, recorded histories, the
//! linearizability oracle, and structural audits over every tree.
//!
//! ```text
//! stress [--storm] [--hot] [--churn] [--churn-sweeps] [--churn-phased] [--threads N] [--ops N] [--seed N] [--keys N]
//!        [--scan-len N] [--preload N] [--duration SECS] [--no-maintain]
//!        [--tree SUBSTR] [--trace PATH] [--profile] [--dump-events N] [--mutate TAG]
//!
//! `--storm` starts from the abort-storm preset (8 threads on 8 keys, the
//! schedule that drives the executor past its retry budgets); `--hot`
//! starts from the hot-range preset (8 threads on 16 adjacent keys, no
//! scans: `Euno-ReadOpt` splits the contended leaf); `--churn`
//! starts from the delete-heavy churn preset (continuous merges retiring
//! leaves under live readers); `--churn-sweeps` is that preset with the
//! Euno trees' rebalance threshold lowered, so foreground deletes carry
//! sweep slices throughout; later flags still override individual knobs.
//! ```
//!
//! Exits nonzero on any violation and prints the exact command line that
//! reproduces it, the seqno-watch and quiescent-audit summaries, and the
//! tail of every thread's event ring (the last `--dump-events` events,
//! default 32) so the failing interleaving's final moments are on record.
//!
//! `--trace PATH` additionally exports the first run's rings as a Chrome
//! trace-event file (plus `PATH.folded` flamegraph rollup); `--profile`
//! prints the hot-leaf contention table per tree. `--mutate TAG` switches
//! the Euno trees' check named `TAG` off on every worker thread (a debug
//! build only: release builds compile the checks in and refuse the flag),
//! so that a row shows the oracle convicts its mutation twin.

use euno_check::{run_all, StressConfig, Verdict};
use euno_trace::write_trace;

fn usage() -> ! {
    eprintln!(
        "usage: stress [--storm] [--hot] [--churn] [--churn-sweeps] [--churn-phased] [--threads N] [--ops N] [--seed N] [--keys N] \
         [--scan-len N] [--preload N] [--duration SECS] [--no-maintain] \
         [--tree SUBSTR] [--trace PATH] [--profile] [--dump-events N] [--mutate TAG]"
    );
    std::process::exit(2);
}

fn main() {
    let mut cfg = StressConfig::default();
    let mut filter: Option<String> = None;
    let mut trace_path: Option<String> = None;
    let mut dump_events: usize = 32;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let num = |args: &mut dyn Iterator<Item = String>| -> u64 {
            args.next()
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| usage())
        };
        // A preset replaces the workload knobs, not the reporting ones.
        let preset = |cfg: &StressConfig, preset: StressConfig| StressConfig {
            trace_capacity: cfg.trace_capacity,
            profile: cfg.profile,
            ..preset
        };
        match flag.as_str() {
            "--storm" => cfg = preset(&cfg, StressConfig::abort_storm()),
            "--hot" => cfg = preset(&cfg, StressConfig::hot()),
            "--churn" => cfg = preset(&cfg, StressConfig::churn()),
            "--churn-sweeps" => cfg = preset(&cfg, StressConfig::churn_sweeps()),
            "--churn-phased" => cfg = preset(&cfg, StressConfig::churn_phased()),
            "--threads" => cfg.threads = num(&mut args) as u32,
            "--ops" => cfg.ops_per_thread = num(&mut args),
            "--seed" => cfg.seed = num(&mut args),
            "--keys" => cfg.key_range = num(&mut args).max(1),
            "--scan-len" => cfg.scan_len = num(&mut args),
            "--preload" => cfg.preload = num(&mut args),
            "--duration" => cfg.duration_ms = num(&mut args) * 1_000,
            "--no-maintain" => cfg.maintain_thread = false,
            "--tree" => filter = Some(args.next().unwrap_or_else(|| usage())),
            "--trace" => trace_path = Some(args.next().unwrap_or_else(|| usage())),
            "--profile" => cfg.profile = true,
            "--dump-events" => dump_events = num(&mut args) as usize,
            "--mutate" if cfg!(debug_assertions) => {
                let tag = args.next().unwrap_or_else(|| usage());
                cfg.mutation = Some(Box::leak(tag.into_boxed_str()));
            }
            "--mutate" => {
                eprintln!("--mutate needs a debug build (drop --release)");
                std::process::exit(2);
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag: {other}");
                usage();
            }
        }
    }
    if trace_path.is_some() || cfg.profile {
        // A failure dump only needs the tail; exporting or profiling
        // wants the whole run, so widen the ring.
        cfg.trace_capacity = cfg.trace_capacity.max(euno_trace::DEFAULT_CAPACITY);
    }

    println!(
        "stress: {} threads × {} ops, seed {}, keys 0..{}, maintain {}",
        cfg.threads,
        cfg.ops_per_thread,
        cfg.seed,
        cfg.key_range,
        if cfg.maintain_thread { "on" } else { "off" }
    );

    let reports = run_all(&cfg, filter.as_deref());
    if reports.is_empty() {
        eprintln!("no tree matches --tree filter");
        std::process::exit(2);
    }

    if let Some(path) = &trace_path {
        let r = &reports[0];
        if let Err(e) = write_trace(path, &r.traces) {
            eprintln!("FAIL writing {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("wrote {path} and {path}.folded ({} run)", r.tree);
    }

    let mut failed = false;
    for r in &reports {
        let verdict = match &r.verdict {
            Verdict::Linearizable { states_explored } => {
                format!("linearizable ({states_explored} states)")
            }
            Verdict::Inconclusive { states_explored } => {
                format!("INCONCLUSIVE after {states_explored} states (raise budget)")
            }
            Verdict::Violation { detail } => format!("VIOLATION: {detail}"),
        };
        let (htm, fallback) = r.path_split();
        println!(
            "  {:<14} {:>7} ops in {:>5} ms | paths h/f {}/{} | lin: {} | invariants: {}",
            r.tree,
            r.history_len,
            r.elapsed_ms,
            htm,
            fallback,
            verdict,
            if r.invariant_violations.is_empty() {
                "clean".to_string()
            } else {
                format!("{} VIOLATED", r.invariant_violations.len())
            }
        );
        for v in &r.invariant_violations {
            println!("      invariant: {v}");
        }
        if cfg.profile {
            if let Some(p) = &r.profile {
                for line in p.render(16).lines() {
                    println!("      {line}");
                }
            }
        }
        if !r.passed() {
            failed = true;
            println!(
                "      seqno watch: {} leaves observed, {} violations",
                r.seqno_leaves_seen, r.seqno_violations
            );
            println!(
                "      index watch: {} index nodes, {} violations",
                r.index_nodes_seen, r.index_violations
            );
            println!("      quiescent audit: {} findings", r.quiescent_findings);
            if !r.traces.is_empty() && dump_events > 0 {
                println!("      last {dump_events} events per thread:");
                for t in &r.traces {
                    println!(
                        "        thread {} ({} events, {} dropped):",
                        t.thread, t.total, t.dropped
                    );
                    let skip = t.events.len().saturating_sub(dump_events);
                    for e in &t.events[skip..] {
                        println!("          {e}");
                    }
                }
            }
            if !r.snapshots.is_empty() {
                // Cumulative counters per snapshot: the deltas between the
                // last rows localize the failure window.
                println!("      last {} metric snapshots:", r.snapshots.len().min(8));
                let skip = r.snapshots.len().saturating_sub(8);
                for s in &r.snapshots[skip..] {
                    use euno_metrics::Counter;
                    println!(
                        "        t={:>9}us ops={} commits={} aborts={} \
                         fallbacks={} flips={} sweep(slices/merges)={}/{} \
                         scan_locked_steps={} contention_splits={} \
                         leaf_hints(hits/stale/miss)={}/{}/{} \
                         subtree_hints(hits/unusable)={}/{}",
                        s.tick,
                        s.counters[Counter::Ops.index()],
                        s.counters[Counter::Commits.index()],
                        euno_metrics::ABORTS_HTM
                            .iter()
                            .map(|c| s.counters[c.index()])
                            .sum::<u64>(),
                        s.counters[Counter::Fallbacks.index()],
                        s.flip_events,
                        s.counters[Counter::SweepSlices.index()],
                        s.counters[Counter::SweepMerges.index()],
                        s.counters[Counter::ScanLockedSteps.index()],
                        s.counters[Counter::ContentionSplits.index()],
                        s.counters[Counter::LeafHintHits.index()],
                        s.counters[Counter::LeafHintStale.index()],
                        s.counters[Counter::LeafHintMiss.index()],
                        s.counters[Counter::SubtreeHintHits.index()],
                        s.counters[Counter::SubtreeHintUnusable.index()],
                    );
                }
            }
        }
    }

    if failed {
        // The presets carry knobs no flag spells (mix, rebalance
        // threshold), so the reproducing line is the invocation itself.
        let argv: Vec<String> = std::env::args().skip(1).collect();
        let release = if cfg.mutation.is_some() {
            ""
        } else {
            "--release "
        };
        eprintln!(
            "\nFAILED — reproduce with:\n  cargo run {release}-p euno-check --bin stress -- {}",
            argv.join(" ")
        );
        std::process::exit(1);
    }
    println!("all trees clean");
}
