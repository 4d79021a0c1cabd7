//! # euno-core — Euno-B+Tree
//!
//! The primary contribution of *Eunomia: Scaling Concurrent Search Trees
//! under Contention Using HTM* (Wang et al., PPoPP 2017), implemented over
//! the `euno-htm` engine:
//!
//! * split HTM regions glued by per-leaf version numbers ([`tree`]),
//! * segmented leaves whose write scheduler is a function of the key —
//!   a home segment and a probe path, so a search reads one segment
//!   ([`segment`], [`leaf_ops`]) — and sorted *reserved keys* buffers
//!   ([`node`]),
//! * a conflict-control block of mark/lock bit vectors, allocated for a
//!   leaf when it first needs one ([`ccm`]),
//! * per-leaf adaptive contention control ([`ccm`], [`config`]).
//!
//! ```
//! use euno_htm::{Runtime, ConcurrentMap};
//! use euno_core::EunoBTreeDefault;
//! use std::sync::Arc;
//!
//! let rt = Runtime::new_virtual();
//! let tree = EunoBTreeDefault::new(Arc::clone(&rt));
//! let mut ctx = rt.thread(0);
//! tree.put(&mut ctx, 42, 4200);
//! assert_eq!(tree.get(&mut ctx, 42), Some(4200));
//! ```

pub mod batch;
pub mod ccm;
pub mod config;
pub mod inspect;
pub mod leaf_ops;
pub mod node;
pub mod probe;
pub mod rebalance;
pub mod scan;
pub mod segment;
pub mod structural;
pub mod traverse;
pub mod tree;

pub use batch::{BatchOp, BatchScratch, BatchStats, UPPER_CHUNK};
pub use ccm::Ccm;
pub use config::EunoConfig;
pub use inspect::TreeStats;
pub use node::{EunoLeaf, Guard, IndexNode, NodeRef, INTERNAL_FANOUT};
pub use segment::{KeyPad, Keys, Segment};
pub use traverse::Located;
pub use tree::{EunoBTree, EunoBTreeDefault, EunoBTreeUnpartitioned};
