//! # euno-check — the correctness subsystem
//!
//! Virtual-time runs are deterministic, so the figure pipeline never sees
//! a racy interleaving; real-thread (`Mode::Concurrent`) runs do, and
//! until this crate nothing *checked* them beyond spot assertions. This
//! crate closes that gap:
//!
//! * [`history`] — per-thread invocation/response recording: a stress
//!   thread brackets each operation with its own [`Recorder`];
//! * [`lin`] — a Wing–Gong-style linearizability oracle with interval
//!   pruning and memoization, plus relaxed validation for the
//!   deliberately non-atomic chained scans;
//! * [`audit`] — cross-time structural checks (leaf seqno monotonicity,
//!   index nodes that never leave or re-bound); the quiescent-state audit
//!   itself lives in `euno-core::inspect`;
//! * [`stress`] — the trait-driven multi-threaded driver tying it all
//!   together, also available as the `stress` binary
//!   (`cargo run -p euno-check --bin stress -- --threads 8 --ops 20000
//!   --seed 1`).

pub mod audit;
pub mod history;
pub mod lin;
pub mod stress;

pub use audit::{IndexWatch, SeqnoWatch};
pub use history::{new_sink, CompletedOp, HistorySink, OpKind, OpOutput, Recorder};
pub use lin::{check_history, Verdict, DEFAULT_BUDGET};
pub use stress::{run_all, run_all_on, run_stress, AuditHooks, StressConfig, StressReport};
