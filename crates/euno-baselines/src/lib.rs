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
//! each file wraps around those phases: a whole-operation HTM region over a
//! path stack ([`htm_btree`]), version words with hand-over-hand parent
//! locking ([`masstree`]), the same version words bumped inside an HTM
//! region that elides the locks ([`htm_masstree`]). DESIGN.md §4.9.

pub mod htm_btree;
pub mod htm_masstree;
pub mod masstree;
pub mod node;

pub use htm_btree::HtmBTree;
pub use htm_masstree::HtmMasstree;
pub use masstree::Masstree;
pub use node::{Leaf, DEFAULT_FANOUT};
