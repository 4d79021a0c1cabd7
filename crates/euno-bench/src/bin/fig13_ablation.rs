//! Figure 13 — "Impact of Different Design Choices": the ablation ladder
//! at 20 threads under high (θ = 0.9) and low (θ = 0.2) contention,
//! reported relative to the HTM-B+Tree baseline (§5.6).
//!
//! Paper numbers (high contention): +Split HTM 1.83×, +Part Leaf 4.58×,
//! +CCM lockbits 9.68×, +CCM markbits 11.10×. Low-contention overheads:
//! −3 % (split), −4 % (part leaf), −8 %/−2 % (CCM), recovered to −2 % by
//! +Adaptive. `+Walk` is this repo's rung past the paper's ladder: the
//! library's default tree, whose upper stage opens no HTM region.

use euno_bench::common::{emit, fig_config, measure, Cli, Point, System};

fn main() {
    let cli = Cli::parse();
    let ladder = [
        System::HtmBTree, // "Baseline"
        System::AblationSplitHtm,
        System::AblationPartLeaf,
        System::AblationCcmLockbits,
        System::AblationCcmMarkbits,
        System::AblationAdaptive,
        System::AblationWalk, // not in the paper: prices the upper episode
    ];

    let mut all = Vec::new();
    for (theta, label) in [(0.9, "high contention"), (0.2, "low contention")] {
        let spec = cli.spec(theta);
        let mut cfg = fig_config(0xF1613, 15_000);
        cfg.threads = 20;
        cli.apply(&mut cfg);

        println!("\n== Figure 13: design-choice ladder, {label} (θ={theta}) ==");
        println!("{:<16} {:>10} {:>10}", "variant", "Mops/s", "relative");
        let mut baseline = f64::NAN;
        for system in ladder {
            let mut m = measure(system, &spec, &cfg);
            cli.post_cell(&mut m);
            if system == System::HtmBTree {
                baseline = m.mops();
            }
            let name = if system == System::HtmBTree {
                "Baseline"
            } else {
                system.label()
            };
            println!(
                "{name:<16} {:>10.2} {:>9.2}x",
                m.mops(),
                m.mops() / baseline
            );
            let mut p = Point::new(system, theta, &spec, &cfg, m);
            p.system = name;
            all.push(p);
        }
    }

    if let Some(csv) = &cli.csv {
        emit(
            "fig13",
            "Figure 13: design-choice ablation ladder, 20 threads",
            csv,
            &all,
        )
        .unwrap();
    }
}
