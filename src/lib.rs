//! # eunomia — umbrella crate
//!
//! Re-exports the whole Eunomia reproduction (Wang et al., *Eunomia:
//! Scaling Concurrent Search Trees under Contention Using HTM*, PPoPP
//! 2017) behind one dependency:
//!
//! * [`htm`] — the transactional engine and its three backends: the
//!   virtual-time TSX model, TL2 software transactions on real threads,
//!   and Intel RTM where the CPU has it,
//! * [`tree`] — Euno-B+Tree, the paper's contribution,
//! * [`baselines`] — HTM-B+Tree, Masstree, HTM-Masstree comparators,
//! * [`workloads`] — YCSB-style key distributions and op mixes,
//! * [`sim`] — the virtual-time experiment harness,
//! * [`check`] — history recording, the linearizability oracle, and the
//!   real-thread stress harness.
//!
//! ```
//! use eunomia::prelude::*;
//! use std::sync::Arc;
//!
//! let rt = Runtime::new_virtual();
//! let tree = EunoBTreeDefault::new(Arc::clone(&rt));
//! let mut ctx = rt.thread(0);
//! tree.put(&mut ctx, 1, 100);
//! assert_eq!(tree.get(&mut ctx, 1), Some(100));
//! ```

pub use euno_baselines as baselines;
pub use euno_check as check;
pub use euno_core as tree;
pub use euno_htm as htm;
pub use euno_serve as serve;
pub use euno_sim as sim;
pub use euno_workloads as workloads;

/// The names almost every user of this workspace needs.
pub mod prelude {
    pub use euno_baselines::{HtmBTree, HtmMasstree, Masstree};
    pub use euno_check::{StressConfig, StressReport, Verdict};
    pub use euno_core::{EunoBTree, EunoBTreeDefault, EunoBTreeUnpartitioned, EunoConfig};
    pub use euno_htm::{ConcurrentMap, CostModel, Mode, Runtime, ThreadCtx};
    pub use euno_serve::{EunoServer, Reply, Request, ServeConfig};
    pub use euno_sim::{preload, run_virtual, RunConfig, RunMetrics, VirtualScheduler};
    pub use euno_workloads::{KeyDistribution, Op, OpMix, OpStream, Preload, WorkloadSpec};
}
