//! Always-on, low-overhead metrics for the Eunomia engine.
//!
//! `euno-metrics` sits at the very bottom of the crate graph (next to
//! `euno-trace`): it depends on nothing and everything above it —
//! executor, version-lock table, epoch collector, CCM — feeds it. The
//! design goals, in priority order:
//!
//! 1. **Schedule neutrality.** Recording a metric charges no virtual
//!    cycles, draws no RNG and takes no lock on the writer path, so a
//!    metered and an unmetered run replay the identical schedule (the
//!    golden-determinism digest pins this).
//! 2. **Near-zero cost when hot.** Counters live in per-thread *shards*
//!    ([`ThreadShard`]): a cache-line-aligned array of `AtomicU64`s with a
//!    single-writer discipline — the owning thread updates with relaxed
//!    load+store (no `lock xadd`), concurrent readers (the sampler) only
//!    ever observe a monotone value.
//! 3. **Zero allocation on the sampling path.** [`TimeSeries`] preallocates
//!    its snapshot ring; `sample()` is a pure copy-and-sum (asserted by a
//!    counting-allocator test).
//!
//! The pieces:
//!
//! - [`Counter`] / [`Gauge`] — the fixed metric vocabulary. Names are
//!   canonical: the run-report executor-stage section and the time-series
//!   exporters all use [`Counter::name`], so there is exactly one spelling
//!   of every metric in the tree.
//! - [`LogHistogram`] — the mergeable √2-bucket histogram, the one the
//!   workspace records latencies in.
//! - [`Registry`] — owns the shards, the gauges and the [`FlipLog`];
//!   one per [`Runtime`](../euno_htm/struct.Runtime.html).
//! - [`TimeSeries`] / [`sample_due`] — the Δ-tick snapshot ring the run
//!   report serializes as its schema-v3 `timeseries` section.
//! - [`FlipLog`] / [`adaptation_lags`] — timestamped CCM bypass flips and
//!   hotspot-shift marks, from which the *adaptation lag* (flip latency
//!   after a programmed hotspot rotation) is derived.

mod counters;
mod flip;
mod hist;
mod registry;
mod sample;

pub use counters::*;
pub use flip::{adaptation_lags, AdaptationLag, FlipEvent, FlipKind, FlipLog};
pub use hist::{approx_quantile_from_buckets, LogHistogram};
pub use registry::{Registry, ShardMark, ThreadShard};
pub use sample::{sample_due, Snapshot, TimeSeries, Window};
