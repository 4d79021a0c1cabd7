//! # euno-baselines — the comparator systems of the Eunomia evaluation
//!
//! Three concurrent B+Trees the paper measures Euno-B+Tree against (§5.1):
//!
//! * [`HtmBTree`] — the conventional monolithic-HTM-region B+Tree used by
//!   DBX-style in-memory databases (Algorithm 1); the design §2.3 analyses.
//! * `Masstree` — a fine-grained-locking B+Tree implementing the
//!   Masstree §4.6 optimistic version-validation protocol.
//! * `HtmMasstree` — the same structure with every operation wrapped in one
//!   HTM region that subsumes its locks.
//!
//! All implement [`euno_htm::ConcurrentMap`] and run under both execution
//! modes of the engine.
//!
//! The three are one sequential B+tree — `euno_htm::bptree`'s index node,
//! tagged pointer, searches, sorted insert, index split and promote loop,
//! and the sorted [`Leaf`] of [`node`] — and differ in the synchronisation
//! wrapped around those phases: one whole-operation HTM region
//! ([`htm_tree`]), with or without Masstree's version words read and bumped
//! inside it, and version words with hand-over-hand parent locking
//! ([`masstree`]). DESIGN.md §4.9.

#![forbid(unsafe_code)]

pub mod htm_tree;
pub mod masstree;
pub mod node;

pub use htm_tree::{HtmBTree, HtmMasstree, HtmTree};
pub use masstree::Masstree;
pub use node::{Guard, Leaf, DEFAULT_FANOUT};
