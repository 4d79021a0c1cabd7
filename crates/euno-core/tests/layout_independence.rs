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
//!
//! Both hint tables remember addresses too — a leaf, an index node — but
//! only as values: what is filed where, and what evicts what, is decided by
//! key blocks and owner ids. The second shape below is the one that lives
//! on them (hot adjacent keys over a keyspace the tables cannot hold).

use std::cell::RefCell;
use std::sync::Arc;

use euno_core::{EunoBTreeDefault, EunoConfig};
use euno_htm::euno_metrics::Counter;
use euno_htm::{ConcurrentMap, Runtime};
use euno_rng::SmallRng;
use euno_sim::VirtualScheduler;

const THREADS: u64 = 16;
const OPS_PER_THREAD: u64 = 5_000;

/// What the logical threads do.
#[derive(Clone, Copy)]
enum Shape {
    /// Uniform keys; gets, puts, deletes and scans, so that sweeps merge
    /// and free leaves throughout.
    Churn,
    /// The benchmark's `virt-hot`, small: keys skewed toward the low end
    /// of a wide keyspace (hot keys adjacent), half gets, half puts.
    Hot,
}

impl Shape {
    fn keys(self) -> u64 {
        match self {
            Shape::Churn => 24_000,
            Shape::Hot => 64_000,
        }
    }

    fn key(self, rng: &mut SmallRng) -> u64 {
        let uniform = rng.gen_range(0..self.keys());
        match self {
            Shape::Churn => uniform,
            // Cubed: half the draws fall in the lowest eighth.
            Shape::Hot => (uniform as u128)
                .pow(3)
                .div_euclid((self.keys() as u128).pow(2)) as u64,
        }
    }
}

/// The cycles each op took and the heat-map size it left, in schedule
/// order.
fn run(cfg: EunoConfig, shape: Shape, leaked_allocations: usize) -> Vec<(u64, usize)> {
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
        for key in (0..shape.keys()).step_by(2) {
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
                let key = shape.key(&mut rng);
                let start = ctx.clock;
                match (shape, rng.gen_range(0..100u32)) {
                    (Shape::Churn, 0..=19) | (Shape::Hot, 0..=49) => drop(tree.get(ctx, key)),
                    (Shape::Churn, 20..=44) | (Shape::Hot, _) => {
                        tree.put(ctx, key, t << 32 | done);
                    }
                    (Shape::Churn, 45..=79) => drop(tree.delete(ctx, key)),
                    (Shape::Churn, _) => {
                        scan_buf.clear();
                        tree.scan(ctx, key, 16, &mut scan_buf);
                    }
                }
                ctx.metric_add(Counter::Ops, 1);
                cycles
                    .borrow_mut()
                    .push((ctx.clock - start, ctx.runtime().virt_heat_len()));
                done += 1;
                done < OPS_PER_THREAD
            }),
        );
    }
    sched.run();
    // Each shape must do what it is here for, or it tests nothing.
    match shape {
        Shape::Churn => assert!(tree.memory().reclaimed_bytes > 0, "no leaf was freed"),
        Shape::Hot => {
            let ops = THREADS * OPS_PER_THREAD;
            let [leaf, subtree] =
                [Counter::LeafHintHits, Counter::SubtreeHintHits].map(|c| rt.metrics().total(c));
            if tree.config().read_opt {
                assert!(
                    leaf > ops / 8 && subtree > ops / 4,
                    "hint hits in {ops} ops: {leaf} leaf, {subtree} subtree"
                );
            } else {
                assert_eq!((leaf, subtree), (0, 0), "paper() has no hints");
            }
        }
    }
    cycles.into_inner()
}

/// Two runs of `shape`, the second behind leaked allocations, under both
/// configurations.
fn same_costs_on_a_shifted_heap(shape: Shape) {
    for cfg in [EunoConfig::paper(), EunoConfig::default()] {
        let plain = run(cfg.clone(), shape, 0);
        let shifted = run(cfg, shape, 1_000);
        let first = plain.iter().zip(&shifted).position(|(a, b)| a != b);
        assert_eq!(
            first,
            None,
            "op cost or heat-map size diverges at op {first:?} of {}",
            plain.len()
        );
    }
}

#[test]
fn op_costs_do_not_depend_on_heap_layout() {
    same_costs_on_a_shifted_heap(Shape::Churn);
}

#[test]
fn hinted_op_costs_do_not_depend_on_heap_layout() {
    same_costs_on_a_shifted_heap(Shape::Hot);
}
