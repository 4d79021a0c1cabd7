//! # euno-trace — structured event tracing for the Eunomia workspace
//!
//! Run-level aggregates (`RunReport`, executor stage counters) say *how
//! much* went wrong; they cannot say *which* leaf, *which* cache line, or
//! *which* retry path did it. This crate closes that gap with a
//! per-thread, fixed-capacity ring buffer of cycle-timestamped structured
//! [`Event`]s that the engine emits from its hot paths — HTM episode
//! begin/commit/abort (with cause and conflicting line address), lock
//! acquire/wait/release, CCM bypass flips, split/merge/maintain
//! structural events, and scheduler steps.
//!
//! The sink is disabled by default, every instrumentation point is one
//! `if let Some(..)` branch when no buffer is installed, and emission
//! never charges cycles, touches the RNG, or otherwise perturbs the
//! deterministic virtual-time schedule. A [`TraceBuf`] is owned
//! exclusively by one thread's context (`&mut` access only), so pushes
//! are plain stores — lock-free by construction.
//!
//! On top of the raw stream sit three consumers:
//!
//! * [`profile::build_profile`] — the hot-leaf contention profiler:
//!   attributes aborts, lock-wait cycles and CCM flips to the leaf
//!   object covering the event's address (the resolver is supplied by
//!   the caller, keeping this crate structure-agnostic) and returns a
//!   ranked table ready for a `RunReport`'s `profile` section;
//! * [`export::chrome_trace`] — Chrome trace-event JSON, loadable in
//!   Perfetto / `chrome://tracing`, built on the in-tree [`Json`]
//!   writer (no external deps);
//! * [`export::folded_rollup`] — a plain-text, cycle-weighted
//!   flamegraph-style rollup (`stack;frame value` lines);
//!   [`export::write_trace`] validates the Chrome export and writes it
//!   with its rollup next to it.
//!
//! The JSON value type, writer and parser live here (in [`json`]) and
//! are re-exported by `euno-sim` for the run-report pipeline; the
//! container's crate registry is unreachable (DESIGN.md §6), so the
//! whole stack stays dependency-free.

#![forbid(unsafe_code)]

pub mod event;
pub mod export;
pub mod json;
pub mod profile;
pub mod ring;

pub use event::{EpisodeKind, Event, EventKind, OpKind};
pub use export::{chrome_trace, folded_rollup, validate_chrome_trace, write_trace};
pub use json::Json;
pub use profile::{build_profile, LeafCounters, LeafProfile};
pub use ring::{ThreadTrace, TraceBuf, DEFAULT_CAPACITY};
