//! Per-layer counts, read from the program's public counters before and
//! after a timed window and reported as deltas.
//!
//! Two sources exist. A thread the benchmark drives itself exposes its
//! `ThreadCtx` (metric shard + `ThreadStats` cycle accounting). A serve
//! shard's worker does not, so there only the shard runtime's
//! `Registry::totals()` is visible and the cycle / access fields stay 0.

use euno_htm::euno_metrics::{Counter, Registry, ABORTS_HTM, ABORTS_MIDDLE, ABORT_BUCKETS};
use euno_htm::ThreadCtx;

#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LayerCounts {
    pub attempts: u64,
    pub commits: u64,
    pub middles: u64,
    pub fallbacks: u64,
    pub ccm_flips: u64,
    /// HTM-path + middle-path aborts per cause, `AbortCounts` field order.
    pub aborts: [u64; ABORT_BUCKETS],
    pub tl2_lock_fails: u64,
    pub tl2_validation_fails: u64,
    // `ThreadStats` only (0 when read from a registry):
    pub cycles_total: u64,
    pub cycles_wasted: u64,
    pub cycles_backoff: u64,
    pub cycles_lock_wait: u64,
    pub cycles_fallback_wait: u64,
    pub mem_accesses: u64,
    pub read_retries: u64,
    pub episode_pool_allocs: u64,
}

impl LayerCounts {
    fn from_counters(get: impl Fn(Counter) -> u64) -> Self {
        let mut aborts = [0; ABORT_BUCKETS];
        for (i, a) in aborts.iter_mut().enumerate() {
            *a = get(ABORTS_HTM[i]) + get(ABORTS_MIDDLE[i]);
        }
        LayerCounts {
            attempts: get(Counter::Attempts),
            commits: get(Counter::Commits),
            middles: get(Counter::Middles),
            fallbacks: get(Counter::Fallbacks),
            ccm_flips: get(Counter::CcmBypassFlips),
            aborts,
            tl2_lock_fails: get(Counter::Tl2LockFails),
            tl2_validation_fails: get(Counter::Tl2ValidationFails),
            ..Default::default()
        }
    }

    pub fn of_ctx(ctx: &ThreadCtx) -> Self {
        let s = &ctx.stats;
        LayerCounts {
            // `stats.cycles_total` is only stamped by `ctx.finish()`.
            cycles_total: ctx.clock,
            cycles_wasted: s.cycles_wasted,
            cycles_backoff: s.cycles_backoff,
            cycles_lock_wait: s.cycles_lock_wait,
            cycles_fallback_wait: s.cycles_fallback_wait,
            mem_accesses: s.mem_accesses,
            read_retries: s.optimistic_retries,
            episode_pool_allocs: s.episode_pool_allocs,
            ..Self::from_counters(|c| ctx.metric(c))
        }
    }

    pub fn of_registry(reg: &Registry) -> Self {
        let totals = reg.totals();
        Self::from_counters(|c| totals[c.index()])
    }

    pub fn aborts_total(&self) -> u64 {
        self.aborts.iter().sum()
    }

    /// Field-wise `self − earlier` (counters are monotone).
    pub fn since(&self, earlier: &LayerCounts) -> LayerCounts {
        let mut d = *self;
        d.zip(earlier, u64::wrapping_sub);
        d
    }

    pub fn add(&mut self, other: &LayerCounts) {
        self.zip(other, u64::wrapping_add);
    }

    fn zip(&mut self, o: &LayerCounts, f: fn(u64, u64) -> u64) {
        let LayerCounts {
            attempts,
            commits,
            middles,
            fallbacks,
            ccm_flips,
            aborts,
            tl2_lock_fails,
            tl2_validation_fails,
            cycles_total,
            cycles_wasted,
            cycles_backoff,
            cycles_lock_wait,
            cycles_fallback_wait,
            mem_accesses,
            read_retries,
            episode_pool_allocs,
        } = self;
        for (a, b) in aborts.iter_mut().zip(&o.aborts) {
            *a = f(*a, *b);
        }
        for (a, b) in [
            (attempts, o.attempts),
            (commits, o.commits),
            (middles, o.middles),
            (fallbacks, o.fallbacks),
            (ccm_flips, o.ccm_flips),
            (tl2_lock_fails, o.tl2_lock_fails),
            (tl2_validation_fails, o.tl2_validation_fails),
            (cycles_total, o.cycles_total),
            (cycles_wasted, o.cycles_wasted),
            (cycles_backoff, o.cycles_backoff),
            (cycles_lock_wait, o.cycles_lock_wait),
            (cycles_fallback_wait, o.cycles_fallback_wait),
            (mem_accesses, o.mem_accesses),
            (read_retries, o.read_retries),
            (episode_pool_allocs, o.episode_pool_allocs),
        ] {
            *a = f(*a, b);
        }
    }

    /// The `htm.*` and counter-based `core.*` per-layer metrics over a
    /// window that completed `ops` operations.
    pub fn metrics(&self, ops: u64, out: &mut Vec<(&'static str, f64)>) {
        let per_op = |n: u64| n as f64 / ops.max(1) as f64;
        let ratio = |n: u64, d: u64| if d == 0 { 0.0 } else { n as f64 / d as f64 };
        let [true_rec, false_rec, false_meta, structure, _unclassified, capacity, _explicit, _spurious, fb_locked] =
            self.aborts;
        out.extend([
            ("htm.attempts_per_op", per_op(self.attempts)),
            ("htm.commit_ratio", ratio(self.commits, self.attempts)),
            ("htm.aborts_per_op", per_op(self.aborts_total())),
            ("htm.aborts_true_per_op", per_op(true_rec)),
            ("htm.aborts_false_record_per_op", per_op(false_rec)),
            ("htm.aborts_false_meta_per_op", per_op(false_meta)),
            ("htm.aborts_structure_per_op", per_op(structure)),
            ("htm.aborts_capacity_per_op", per_op(capacity)),
            ("htm.aborts_fallback_locked_per_op", per_op(fb_locked)),
            (
                "htm.wasted_cycle_frac",
                ratio(self.cycles_wasted, self.cycles_total),
            ),
            ("htm.backoff_cycles_per_op", per_op(self.cycles_backoff)),
            ("htm.middles_per_op", per_op(self.middles)),
            ("htm.fallbacks_per_op", per_op(self.fallbacks)),
            (
                "htm.fallback_wait_cycles_per_op",
                per_op(self.cycles_fallback_wait),
            ),
            ("htm.tl2_lock_fails_per_op", per_op(self.tl2_lock_fails)),
            (
                "htm.tl2_validation_fails_per_op",
                per_op(self.tl2_validation_fails),
            ),
            ("htm.episode_pool_allocs", self.episode_pool_allocs as f64),
            ("core.accesses_per_op", per_op(self.mem_accesses)),
            ("core.read_retries_per_op", per_op(self.read_retries)),
            (
                "core.lock_wait_cycles_per_op",
                per_op(self.cycles_lock_wait),
            ),
            ("core.ccm_flips", self.ccm_flips as f64),
        ]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deltas_and_sums_cover_every_field() {
        let mut a = LayerCounts {
            attempts: 10,
            commits: 8,
            cycles_total: 100,
            episode_pool_allocs: 1,
            ..Default::default()
        };
        a.aborts[1] = 2;
        let mut b = a;
        b.attempts = 25;
        b.aborts[1] = 5;
        b.episode_pool_allocs = 1;
        let d = b.since(&a);
        assert_eq!(
            (d.attempts, d.commits, d.aborts[1], d.episode_pool_allocs),
            (15, 0, 3, 0)
        );
        let mut sum = a;
        sum.add(&d);
        assert_eq!(sum, b);
        let mut out = Vec::new();
        b.metrics(5, &mut out);
        let get = |n: &str| out.iter().find(|(k, _)| *k == n).unwrap().1;
        assert_eq!(get("htm.attempts_per_op"), 5.0);
        assert_eq!(get("htm.aborts_false_record_per_op"), 1.0);
        assert_eq!(get("htm.commit_ratio"), 8.0 / 25.0);
    }
}
