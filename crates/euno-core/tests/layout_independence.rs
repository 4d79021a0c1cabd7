//! A virtual-clock run must not depend on where the allocator puts nodes.
//!
//! The simulation keys line heat and commit history by address. Once
//! re-balance sweeps free leaves, the allocator hands those addresses to
//! later splits in an order that depends on everything else on the heap;
//! if a fresh leaf inherited what the simulation remembered about the dead
//! one, the same seed would read different clocks under ASLR. Two runs in
//! one process, the second behind a few thousand leaked allocations, must
//! charge every operation the same cycles — and leave the simulator's heat
//! map the same size after every operation: its eviction triggers on that
//! size, and a retired leaf's entries lingering until the allocator
//! re-issues the address (or not) move it.

use std::cell::RefCell;
use std::sync::Arc;

use euno_core::{EunoBTreeDefault, EunoConfig};
use euno_htm::{ConcurrentMap, Runtime};
use euno_rng::{Rng, SmallRng};
use euno_sim::VirtualScheduler;

const THREADS: u64 = 16;
const KEYS: u64 = 24_000;
const OPS_PER_THREAD: u64 = 5_000;

/// The cycles each op took and the heat-map size it left, in schedule
/// order.
fn run(cfg: EunoConfig, leaked_allocations: usize) -> Vec<(u64, usize)> {
    for i in 0..leaked_allocations {
        std::mem::forget(vec![0u8; 40 + (i % 7) * 100]);
    }
    let rt = Runtime::new_virtual();
    let tree = EunoBTreeDefault::with_config(
        Arc::clone(&rt),
        EunoConfig {
            // Low enough that several sweeps merge and free leaves.
            rebalance_delete_threshold: 4_000,
            ..cfg
        },
    );
    {
        let mut ctx = rt.thread(0x10ad);
        for key in (0..KEYS).step_by(2) {
            tree.put(&mut ctx, key, key);
            if key % 256 == 0 {
                rt.virt_prune(ctx.clock);
            }
        }
        rt.reset_dynamics();
    }
    let cycles = RefCell::new(Vec::new());
    let mut sched = VirtualScheduler::new(Arc::clone(&rt));
    for t in 0..THREADS {
        let (tree, cycles) = (&tree, &cycles);
        let mut rng = SmallRng::seed_from_u64(0x00B0_0DED ^ t);
        let mut done = 0u64;
        let mut scan_buf = Vec::new();
        sched.add_thread(
            t,
            Box::new(move |ctx| {
                let key = rng.gen_range(0..KEYS);
                let start = ctx.clock;
                match rng.gen_range(0..100u32) {
                    0..=19 => drop(tree.get(ctx, key)),
                    20..=44 => drop(tree.put(ctx, key, t << 32 | done)),
                    45..=79 => drop(tree.delete(ctx, key)),
                    _ => {
                        scan_buf.clear();
                        tree.scan(ctx, key, 16, &mut scan_buf);
                    }
                }
                ctx.stats.ops += 1;
                cycles
                    .borrow_mut()
                    .push((ctx.clock - start, ctx.runtime().virt_heat_len()));
                done += 1;
                done < OPS_PER_THREAD
            }),
        );
    }
    sched.run();
    assert!(
        tree.memory().reclaimed_bytes > 0,
        "the run must free leaves, or it tests nothing"
    );
    cycles.into_inner()
}

#[test]
fn op_costs_do_not_depend_on_heap_layout() {
    for cfg in [EunoConfig::paper(), EunoConfig::default()] {
        let plain = run(cfg.clone(), 0);
        let shifted = run(cfg, 1_000);
        let first = plain.iter().zip(&shifted).position(|(a, b)| a != b);
        assert_eq!(
            first,
            None,
            "op cost or heat-map size diverges at op {first:?} of {}",
            plain.len()
        );
    }
}
