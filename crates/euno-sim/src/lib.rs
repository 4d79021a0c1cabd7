//! # euno-sim — deterministic virtual-time experiment harness
//!
//! Schedules N logical threads on a virtual cycle clock so the Eunomia
//! paper's 16-20-thread contention experiments can run (deterministically)
//! on any host. Real OS threads are driven elsewhere: by `euno-check`'s
//! stress runner and the benchmark's wall pass.
//!
//! The scheduler always resumes the logical thread with the smallest
//! virtual clock; operations overlap in virtual time, and the `euno-htm`
//! engine turns overlap × footprint collision into TSX-like aborts. See
//! DESIGN.md §2 for why this substitution preserves the paper's figures.

#![forbid(unsafe_code)]

pub mod harness;
pub mod metrics;
pub mod report;
pub mod sched;

pub use harness::{apply_op, preload, run_ops, run_virtual, RunConfig};
pub use metrics::RunMetrics;
pub use report::{profile_json, report_path_for, validate_report, Json, RunEntry, RunReport};
pub use sched::{Driver, VirtualScheduler};

// The trace toolkit, re-exported so bench binaries can export traces
// without a separate dependency edge.
pub use euno_trace::{
    build_profile, chrome_trace, write_trace, LeafProfile, ThreadTrace, TraceBuf,
    DEFAULT_CAPACITY as DEFAULT_TRACE_CAPACITY,
};
