//! # euno-workloads — YCSB-core-compatible workload generation
//!
//! Key distributions, operation mixes and per-thread streams replicating
//! the workload setup of the Eunomia paper (§5.1, §5.4, §5.5): Zipfian
//! with tunable skew θ, self-similar (80/20), normal (σ = 1 % of mean) and
//! Poisson hot-spot distributions; get/put mixes; deterministic per-thread
//! request streams with intra-thread locality.
//!
//! ```
//! use euno_workloads::{WorkloadSpec, OpStream, Op};
//!
//! let spec = WorkloadSpec::paper_default(0.9); // Zipfian θ = 0.9
//! let mut stream = OpStream::new(&spec, /*thread*/ 0, /*seed*/ 42);
//! match stream.next_op() {
//!     Op::Get { key } | Op::Put { key, .. } => assert!(key < spec.key_range),
//!     _ => {}
//! }
//! ```

#![forbid(unsafe_code)]

pub mod dist;
pub mod spec;
pub mod ycsb;

pub use dist::{KeyDistribution, KeySampler};
pub use spec::{Op, OpMix, OpStream, Preload, WorkloadSpec};
pub use ycsb::{YcsbOp, YcsbSpec, YcsbStream, YcsbWorkload};
