//! # euno-sim — deterministic virtual-time experiment harness
//!
//! Schedules N logical threads on a virtual cycle clock so the Eunomia
//! paper's 16-20-thread contention experiments can run (deterministically)
//! on any host, plus a real-OS-thread runner for correctness stress tests.
//!
//! The scheduler always resumes the logical thread with the smallest
//! virtual clock; operations overlap in virtual time, and the `euno-htm`
//! engine turns overlap × footprint collision into TSX-like aborts. See
//! DESIGN.md §2 for why this substitution preserves the paper's figures.

pub mod harness;
pub mod metrics;
pub mod report;
pub mod sched;

pub use harness::{
    apply_op, apply_warmup_op, attach_profile, preload, run_concurrent, run_virtual, RunConfig,
};
pub use metrics::{RunMetrics, ServeInfo};
pub use report::{profile_json, report_path_for, validate_report, Json, RunEntry, RunReport};
pub use sched::{Driver, VirtualScheduler};

// The trace toolkit, re-exported so bench binaries can export traces
// without a separate dependency edge.
pub use euno_trace::{
    build_profile, chrome_trace, folded_rollup, metrics_jsonl, validate_chrome_trace,
    validate_metrics_jsonl, LeafProfile, ThreadTrace, TraceBuf,
    DEFAULT_CAPACITY as DEFAULT_TRACE_CAPACITY,
};
