//! # euno-htm — a software HTM engine with TSX-like semantics
//!
//! The substrate for the Eunomia reproduction (Wang et al., *Eunomia:
//! Scaling Concurrent Search Trees under Contention Using HTM*, PPoPP
//! 2017). The paper's experiments run on Intel RTM hardware; this crate
//! recreates the behaviours the paper's analysis depends on in software so
//! the full evaluation can run anywhere:
//!
//! * **Cache-line-granularity conflict detection.** Footprints are sets of
//!   real 64-byte line addresses ([`line`]), so false sharing between
//!   adjacent records and shared metadata — the paper's dominant abort
//!   source — emerges from the actual memory layout.
//! * **TSX abort semantics.** Conflict / capacity / explicit / spurious
//!   abort codes ([`abort`]), bounded read/write sets, lock-subscribing
//!   fallback with per-cause retry budgets ([`policy`]).
//! * **Three engine backends, one decision.** [`Runtime::new`] resolves
//!   a [`Backend`] once, and each backend's protocol is one module:
//!   [`virt`], a deterministic virtual-time mode where transactions
//!   occupy intervals of a cycle-charged clock ([`cost`]) and conflict
//!   when overlapping intervals have colliding footprints — the mode
//!   every figure of the paper is regenerated under (the host has no
//!   20-core TSX machine); [`tl2`], real-thread software transactions
//!   (TL2-style per-line version locks, [`tl2::VersionTable`]) for
//!   stress-testing correctness at wall-clock speed; and [`rtm`], genuine
//!   RTM lock elision behind the same staged executor — compiled wherever
//!   the target is x86-64, entered where CPUID reports TSX. The shared
//!   core ([`ctx`], [`exec`], [`lock`]) owns episodes, footprints,
//!   charging, telemetry and the retry loop, and dispatches on the
//!   backend once per engine entry point.
//!
//! ## Quick example
//!
//! ```
//! use euno_htm::{Runtime, RetryPolicy, TxCell};
//!
//! let rt = Runtime::new_virtual();
//! let mut ctx = rt.thread(42);
//! let fallback = TxCell::new(0u64);
//! let counter = TxCell::new(0u64);
//!
//! let out = ctx.htm_execute(&fallback, &RetryPolicy::default(), |tx| {
//!     let v = tx.read(&counter)?;
//!     tx.write(&counter, v + 1)?;
//!     Ok(v)
//! });
//! assert_eq!(out.value, 0);
//! assert_eq!(counter.load_plain(), 1);
//! ```

pub mod abort;
pub mod arena;
pub mod bptree;
pub mod cost;
pub mod ctx;
pub mod epoch;
pub mod exec;
pub mod hint;
pub mod line;
pub mod lock;
pub mod map;
pub mod policy;
pub(crate) mod registry;
pub mod rtm;
pub mod runtime;
pub mod stats;
pub mod tl2;
pub mod virt;
pub mod word;

pub use abort::{classify_conflict, AbortCause, ConflictInfo, TxResult};
pub use arena::{Arena, TransientBytes};
pub use bptree::{Access, Guard, IndexNode, NodeArenas, NodeRef, ParentLinked};
pub use cost::CostModel;
pub use ctx::{MetricsMark, ThreadCtx, Tx};
pub use epoch::{CollectOutcome, Collector, Participant};
pub use euno_metrics::AbortClass;
pub use exec::{ExecOutcome, Path};
pub use hint::{fresh_owner, Anchor, Hint};
pub use line::{LineClass, LineId, LineSet, CACHE_LINE_BYTES};
pub use lock::{slot_for_key, ControlBlock, LockWord, SpinBackoff};
pub use map::{ConcurrentMap, MemoryReport, KEY_SENTINEL, TOMBSTONE};
pub use policy::{Decision, RetryCounts, RetryPolicy};
pub use rtm::hw_rtm_available;
pub use runtime::{Backend, Mode, OwnLine, Runtime};
pub use stats::{AbortCounts, ThreadStats};
pub use tl2::VersionTable;
pub use word::{TxCell, TxWord};

// Trace-layer types, re-exported so downstream crates can install ring
// buffers and build profiles without depending on euno-trace directly.
pub use euno_trace::{EpisodeKind, Event, EventKind, OpKind, ThreadTrace, TraceBuf};

/// The metrics crate, re-exported whole so engine consumers can name
/// counters ([`euno_metrics::Counter`]) without a direct dependency.
pub use euno_metrics;
