//! Property tests for the epoch-based reclamation collector.
//!
//! Offline environment — no proptest; each property drives the
//! [`Collector`] through seeded random interleavings of pin / unpin /
//! retire / collect steps from a [`SmallRng`], so failures reproduce
//! deterministically. The model mirrors the EBR contract exactly:
//!
//! * a destructor may not run while any pin that existed at retire time
//!   is still continuously held (the grace-period guarantee);
//! * the epoch advances precisely when no pinned participant lags it;
//! * once every pin is released, a bounded number of collects drains the
//!   bag completely, each destructor running exactly once;
//! * `pending` / `pending_bytes` / `reclaimed` stay consistent with the
//!   model at every step.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use euno_htm::{Collector, Participant};
use euno_rng::SmallRng;

/// Per-participant published state, shared with retire closures: the pin
/// "generation" uniquely identifies one continuous enter…exit span, so a
/// destructor can tell "the pin I saw at retire time is still held" from
/// "that participant unpinned and re-pinned since".
type PinModel = Arc<Mutex<Vec<Option<u64>>>>;

struct Harness {
    collector: Collector,
    participants: Vec<Participant>,
    pins: PinModel,
    /// Epoch each participant pinned at (model-side; single-threaded so
    /// exact), `None` when unpinned.
    pin_epochs: Vec<Option<u64>>,
    next_gen: u64,
    /// One flag per retired item, set by its destructor.
    freed_flags: Vec<Arc<AtomicBool>>,
    /// Model-side bytes of retired-but-not-freed items.
    outstanding_bytes: Vec<(Arc<AtomicBool>, usize)>,
    retired_total: usize,
}

impl Harness {
    fn new(threads: usize) -> Harness {
        let collector = Collector::new();
        let participants = (0..threads).map(|_| collector.register()).collect();
        Harness {
            collector,
            participants,
            pins: Arc::new(Mutex::new(vec![None; threads])),
            pin_epochs: vec![None; threads],
            next_gen: 1,
            freed_flags: Vec::new(),
            outstanding_bytes: Vec::new(),
            retired_total: 0,
        }
    }

    fn enter(&mut self, i: usize) {
        if self.pins.lock().unwrap()[i].is_some() {
            return; // keep the model flat: one logical pin per participant
        }
        self.participants[i].enter(&self.collector);
        let gen = self.next_gen;
        self.next_gen += 1;
        self.pins.lock().unwrap()[i] = Some(gen);
        self.pin_epochs[i] = Some(self.collector.global_epoch());
    }

    fn exit(&mut self, i: usize) {
        if self.pins.lock().unwrap()[i].is_none() {
            return;
        }
        self.participants[i].exit();
        self.pins.lock().unwrap()[i] = None;
        self.pin_epochs[i] = None;
    }

    /// Retire one item from pinned participant `i` (the contract requires
    /// the retirer to hold a pin). The destructor asserts the grace
    /// period: every pin generation alive at retire time must be gone by
    /// the time it runs.
    fn retire_from(&mut self, i: usize, bytes: usize) {
        assert!(
            self.pins.lock().unwrap()[i].is_some(),
            "retirer must be pinned"
        );
        let snapshot: Vec<(usize, u64)> = self
            .pins
            .lock()
            .unwrap()
            .iter()
            .enumerate()
            .filter_map(|(idx, g)| g.map(|g| (idx, g)))
            .collect();
        let pins = Arc::clone(&self.pins);
        let flag = Arc::new(AtomicBool::new(false));
        let f = Arc::clone(&flag);
        self.collector.retire(bytes, move || {
            assert!(!f.swap(true, Ordering::SeqCst), "destructor ran twice");
            let now = pins.lock().unwrap();
            for &(idx, gen) in &snapshot {
                assert_ne!(
                    now[idx],
                    Some(gen),
                    "freed while participant {idx}'s retire-time pin (gen {gen}) persists"
                );
            }
        });
        self.freed_flags.push(Arc::clone(&flag));
        self.outstanding_bytes.push((flag, bytes));
        self.retired_total += 1;
    }

    /// Collect, checking the advance condition against the model.
    fn collect_checked(&mut self) {
        let before = self.collector.global_epoch();
        let blocked = self
            .pin_epochs
            .iter()
            .any(|pe| matches!(pe, Some(e) if *e != before));
        let out = self.collector.collect();
        if blocked {
            assert_eq!(
                out.advanced_to, None,
                "epoch advanced past a lagging pin (epoch {before})"
            );
        } else {
            assert_eq!(
                out.advanced_to,
                Some(before + 1),
                "unblocked advance must succeed"
            );
        }
        self.check_accounting();
    }

    fn freed_count(&self) -> usize {
        self.freed_flags
            .iter()
            .filter(|f| f.load(Ordering::SeqCst))
            .count()
    }

    fn check_accounting(&mut self) {
        self.outstanding_bytes
            .retain(|(flag, _)| !flag.load(Ordering::SeqCst));
        let model_pending: usize = self.outstanding_bytes.len();
        let model_bytes: usize = self.outstanding_bytes.iter().map(|&(_, b)| b).sum();
        assert_eq!(self.collector.pending(), model_pending);
        assert_eq!(self.collector.pending_bytes(), model_bytes);
        assert_eq!(self.collector.reclaimed() as usize, self.freed_count());
    }
}

/// The grace-period guarantee under random interleavings: destructors
/// observe that every retire-time pin has been released, no matter how
/// enters, exits, retires and collects interleave.
#[test]
fn no_destructor_runs_under_a_retire_time_pin() {
    for seed in 0..32u64 {
        let mut rng = SmallRng::seed_from_u64(0xE90C + seed);
        let threads = rng.gen_range(2..6u64) as usize;
        let mut h = Harness::new(threads);
        for _ in 0..400 {
            let i = rng.gen_range(0..threads as u64) as usize;
            match rng.gen_range(0..10u64) {
                0..=2 => h.enter(i),
                3..=5 => h.exit(i),
                6..=7 => {
                    // Retire from a pinned participant (pin one if none).
                    h.enter(i);
                    let bytes = rng.gen_range(1..512u64) as usize;
                    h.retire_from(i, bytes);
                }
                _ => h.collect_checked(),
            }
        }
        // Quiesce: every pin released, two collects mature everything.
        for i in 0..threads {
            h.exit(i);
        }
        h.collect_checked();
        h.collect_checked();
        assert_eq!(
            h.freed_count(),
            h.retired_total,
            "seed {seed}: quiescent drain must free every retired item"
        );
        h.check_accounting();
        assert_eq!(h.collector.pending(), 0);
        assert_eq!(h.collector.pending_bytes(), 0);
    }
}

/// Dropping the last lagging pin unblocks reclamation within two
/// collects — the bound the tree's opportunistic collection cadence
/// relies on (retired at epoch e, freed once the global reaches e + 2).
#[test]
fn releasing_the_blocking_pin_unblocks_within_two_collects() {
    for seed in 0..16u64 {
        let mut rng = SmallRng::seed_from_u64(0xB10C + seed);
        let mut h = Harness::new(3);
        // A long-lived reader pins first, then a writer retires a random
        // batch; nothing may free while the reader persists.
        h.enter(0);
        h.enter(1);
        let n = rng.gen_range(1..20u64) as usize;
        for _ in 0..n {
            h.retire_from(1, rng.gen_range(1..256u64) as usize);
        }
        h.exit(1);
        let spins = rng.gen_range(1..6u64);
        for _ in 0..spins {
            h.collect_checked();
            assert_eq!(h.freed_count(), 0, "seed {seed}: reader pin must block");
        }
        h.exit(0);
        h.collect_checked();
        h.collect_checked();
        assert_eq!(h.freed_count(), n, "seed {seed}: drain after release");
    }
}

/// Collect is idempotent per retired node under randomized extra calls,
/// and byte accounting matches the model after every call.
#[test]
fn redundant_collects_free_each_node_exactly_once() {
    for seed in 0..16u64 {
        let mut rng = SmallRng::seed_from_u64(0x1DE0 + seed);
        let mut h = Harness::new(2);
        let mut retired = 0usize;
        for _ in 0..10 {
            h.enter(0);
            let n = rng.gen_range(0..5u64) as usize;
            for _ in 0..n {
                h.retire_from(0, rng.gen_range(1..128u64) as usize);
                retired += 1;
            }
            h.exit(0);
            for _ in 0..rng.gen_range(1..5u64) {
                h.collect_checked();
            }
        }
        for _ in 0..3 {
            h.collect_checked();
        }
        assert_eq!(h.freed_count(), retired, "seed {seed}");
        assert_eq!(h.collector.reclaimed() as usize, retired);
    }
}

/// A collector dropped with garbage still pending runs every leftover
/// destructor exactly once — the double-free guard inside the closures
/// does the "exactly once" half of the assertion.
#[test]
fn drop_with_pending_garbage_frees_leftovers_exactly_once() {
    for seed in 0..8u64 {
        let mut rng = SmallRng::seed_from_u64(0xD809 + seed);
        let mut h = Harness::new(2);
        h.enter(0);
        let n = rng.gen_range(1..12u64) as usize;
        for _ in 0..n {
            h.retire_from(0, rng.gen_range(1..64u64) as usize);
        }
        h.exit(0);
        if rng.gen_range(0..2u64) == 0 {
            h.collect_checked(); // partially mature some of the bag
        }
        let flags = h.freed_flags.clone();
        let Harness { collector, .. } = h;
        drop(collector);
        assert!(
            flags.iter().all(|f| f.load(Ordering::SeqCst)),
            "seed {seed}: every leftover freed at drop"
        );
    }
}
