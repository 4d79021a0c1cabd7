//! Cost-model sensitivity: is the paper's qualitative result an artifact
//! of our calibration constants?
//!
//! Sweeps the two most load-bearing knobs of the virtual-time model — the
//! hot-line transfer charge (`line_transfer`, NUMA/coherence cost) and the
//! retry backoff cap (`backoff_cap`) — and reports the
//! high-contention ordering each setting produces. The claim that must
//! survive every cell: **Euno-B+Tree > Masstree > monolithic HTM-B+Tree at
//! θ = 0.9**, with Euno close to the baseline at θ = 0.2.

use euno_bench::common::{emit, fig_config, Cli, Point, System};
use euno_htm::{Backend, CostModel, Runtime};
use euno_sim::{preload, run_virtual, RunConfig, RunMetrics};
use euno_workloads::WorkloadSpec;

fn measure_with(
    system: System,
    cost: CostModel,
    spec: &WorkloadSpec,
    cfg: &RunConfig,
    cli: &Cli,
) -> RunMetrics {
    let rt = Runtime::new(Backend::Virtual, cost);
    let map = system.build(&rt);
    preload(map.as_ref(), &rt, spec);
    rt.reset_dynamics();
    let mut m = run_virtual(map.as_ref(), &rt, spec, cfg);
    cli.post_cell(&mut m);
    m
}

fn main() {
    let cli = Cli::parse();
    let high = cli.spec(0.9);
    let low = cli.spec(0.2);
    let mut cfg = fig_config(0x5E45, 10_000);
    cli.apply(&mut cfg);
    let mut points: Vec<Point> = Vec::new();
    // The swept knob rides along in each point's `extra` object; the
    // report's top-level cost_model block stays the default constants.
    let mut push = |system: System,
                    x: String,
                    knob: &str,
                    value: f64,
                    spec: &WorkloadSpec,
                    cfg: &RunConfig,
                    m: RunMetrics| {
        points.push(Point::new(system, x, spec, cfg, m).with_extra(knob, value));
    };

    println!("== Sensitivity: hot-line transfer charge (θ=0.9, 16 thr) ==");
    println!(
        "{:>10} {:>12} {:>12} {:>12} {:>10}",
        "transfer", "Euno", "HTM-B+Tree", "Masstree", "Euno/HTM"
    );
    for transfer in [60u64, 120, 180, 300, 450] {
        let cost = CostModel {
            line_transfer: transfer,
            ..CostModel::default()
        };
        let euno = measure_with(System::EunoBTree, cost.clone(), &high, &cfg, &cli);
        let htm = measure_with(System::HtmBTree, cost.clone(), &high, &cfg, &cli);
        let mt = measure_with(System::Masstree, cost.clone(), &high, &cfg, &cli);
        println!(
            "{transfer:>10} {:>12.2} {:>12.2} {:>12.2} {:>9.1}x",
            euno.mops(),
            htm.mops(),
            mt.mops(),
            euno.mops() / htm.mops()
        );
        assert!(
            euno.mops() > htm.mops(),
            "ordering must hold at transfer={transfer}"
        );
        let x = format!("transfer={transfer}");
        push(
            System::EunoBTree,
            x.clone(),
            "line_transfer",
            transfer as f64,
            &high,
            &cfg,
            euno,
        );
        push(
            System::HtmBTree,
            x.clone(),
            "line_transfer",
            transfer as f64,
            &high,
            &cfg,
            htm,
        );
        push(
            System::Masstree,
            x,
            "line_transfer",
            transfer as f64,
            &high,
            &cfg,
            mt,
        );
    }

    println!("\n== Sensitivity: retry backoff cap (θ=0.9, 16 thr) ==");
    println!(
        "{:>10} {:>12} {:>12} {:>10}",
        "cap", "Euno", "HTM-B+Tree", "Euno/HTM"
    );
    for cap in [300u64, 1_200, 4_800, 12_000] {
        let cost = CostModel {
            backoff_cap: cap,
            ..CostModel::default()
        };
        let euno = measure_with(System::EunoBTree, cost.clone(), &high, &cfg, &cli);
        let htm = measure_with(System::HtmBTree, cost.clone(), &high, &cfg, &cli);
        println!(
            "{cap:>10} {:>12.2} {:>12.2} {:>9.1}x",
            euno.mops(),
            htm.mops(),
            euno.mops() / htm.mops()
        );
        assert!(
            euno.mops() > htm.mops(),
            "ordering must hold at backoff cap {cap}"
        );
        let x = format!("cap={cap}");
        push(
            System::EunoBTree,
            x.clone(),
            "backoff_cap",
            cap as f64,
            &high,
            &cfg,
            euno,
        );
        push(
            System::HtmBTree,
            x,
            "backoff_cap",
            cap as f64,
            &high,
            &cfg,
            htm,
        );
    }

    println!("\n== Sensitivity: low-contention overhead (θ=0.2) ==");
    for transfer in [60u64, 180, 450] {
        let cost = CostModel {
            line_transfer: transfer,
            ..CostModel::default()
        };
        let euno = measure_with(System::EunoBTree, cost.clone(), &low, &cfg, &cli);
        let htm = measure_with(System::HtmBTree, cost.clone(), &low, &cfg, &cli);
        println!(
            "transfer={transfer:<4} Euno {:>8.2} vs HTM {:>8.2}  ({:.0}% overhead)",
            euno.mops(),
            htm.mops(),
            100.0 * (1.0 - euno.mops() / htm.mops())
        );
        let x = format!("low/transfer={transfer}");
        push(
            System::EunoBTree,
            x.clone(),
            "line_transfer",
            transfer as f64,
            &low,
            &cfg,
            euno,
        );
        push(
            System::HtmBTree,
            x,
            "line_transfer",
            transfer as f64,
            &low,
            &cfg,
            htm,
        );
    }
    println!("\nordering robust across the sweep ✓");

    if let Some(csv) = &cli.csv {
        emit("sensitivity", "Cost-model sensitivity sweeps", csv, &points).unwrap();
    }
}
