//! The event schema (DESIGN.md §13).
//!
//! Events are small `Copy` records: a cycle timestamp, the emitting
//! thread, and a kind-specific payload. Payloads carry raw `u64`
//! addresses and the workspace's one vocabulary for what ran and why it
//! ended: [`EpisodeKind`] and [`OpKind`], defined here, and
//! [`AbortClass`], defined in `euno-metrics`. The exporters print their
//! canonical names.

use std::fmt;

use euno_metrics::{define_metric_enum, AbortClass};

define_metric_enum! {
    /// What kind of instrumented span is running (`euno-htm`'s episodes).
    EpisodeKind {
        /// A hardware-transaction attempt: write-buffered, abortable.
        HtmTx => "htm_tx",
        /// The serialized fallback path of an HTM region (lock held).
        Fallback => "fallback",
        /// A version-validated optimistic read section (Masstree §4.6).
        OptimisticRead => "optimistic_read",
        /// An in-place write section under a per-node lock.
        LockedWrite => "locked_write",
    }
}

define_metric_enum! {
    /// The client-level operation kinds a trace or a history can contain.
    OpKind {
        Get => "get",
        Put => "put",
        Delete => "delete",
        Scan => "scan",
        /// A deferred-rebalance sweep — structurally significant but a
        /// no-op on the abstract map (checkers verify it *preserves* the
        /// state).
        Maintain => "maintain",
    }
}

/// What happened. Addresses are raw (`usize as u64`) so the profiler can
/// resolve them to owning objects after the run; `0` means "no address".
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// An episode (HTM attempt, fallback, optimistic read, locked write)
    /// started.
    EpisodeBegin {
        kind: EpisodeKind,
    },
    /// The episode committed / finished successfully.
    EpisodeCommit {
        kind: EpisodeKind,
    },
    /// The episode aborted. `line_addr` is the base address of the
    /// conflicting cache line for conflict causes, else 0.
    EpisodeAbort {
        kind: EpisodeKind,
        cause: AbortClass,
        line_addr: u64,
    },
    /// The executor backed off for `cycles` before retrying.
    Backoff {
        cycles: u64,
    },
    /// The executor waited `cycles` for the fallback lock to clear.
    FallbackWait {
        cycles: u64,
    },
    /// An advisory lock / CCM lock bit was acquired after waiting
    /// `wait_cycles` (0 = uncontended).
    LockAcquire {
        addr: u64,
        wait_cycles: u64,
    },
    LockRelease {
        addr: u64,
    },
    /// The adaptive contention detector flipped a leaf's bypass flag.
    CcmFlip {
        addr: u64,
        bypass: bool,
    },
    /// Structural: `left` split, producing `right`.
    Split {
        left: u64,
        right: u64,
    },
    /// Structural: `right` merged into `left`.
    Merge {
        left: u64,
        right: u64,
    },
    /// A leaf reorganized in place (tombstone compaction, every record
    /// re-placed on its probe path) without splitting.
    Reorg {
        leaf: u64,
    },
    /// A maintenance sweep finished, having performed `merges` merges.
    Maintain {
        merges: u64,
    },
    /// A client-level operation started / ended (emitted by harnesses).
    OpBegin {
        kind: OpKind,
        key: u64,
    },
    OpEnd,
    /// The virtual-time scheduler dispatched a thread at `clock`.
    SchedStep {
        clock: u64,
    },
    /// The global reclamation epoch advanced to `epoch`.
    EpochAdvance {
        epoch: u64,
    },
    /// A reclamation pass freed `nodes` retired nodes (`bytes` total).
    EpochReclaim {
        nodes: u64,
        bytes: u64,
    },
    /// An episode-free optimistic read of `key` failed validation and is
    /// retrying from the root.
    ReadRetry {
        key: u64,
    },
    /// A euno-serve group-commit batch executed: `ops` requests drained in
    /// one drain cycle, of which `batched` ran through shared episodes
    /// (the rest fell back to per-request execution).
    BatchExec {
        ops: u32,
        batched: u32,
    },
}

/// One trace record: when, who, what.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Event {
    /// Virtual-cycle timestamp (the emitting thread's clock).
    pub ts: u64,
    /// Emitting thread id.
    pub thread: u32,
    pub kind: EventKind,
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[t{} @{}] ", self.thread, self.ts)?;
        match self.kind {
            EventKind::EpisodeBegin { kind } => write!(f, "{} begin", kind.name()),
            EventKind::EpisodeCommit { kind } => write!(f, "{} commit", kind.name()),
            EventKind::EpisodeAbort {
                kind,
                cause,
                line_addr,
            } => {
                write!(f, "{} abort: {}", kind.name(), cause.name())?;
                if line_addr != 0 {
                    write!(f, " line {line_addr:#x}")?;
                }
                Ok(())
            }
            EventKind::Backoff { cycles } => write!(f, "backoff {cycles} cyc"),
            EventKind::FallbackWait { cycles } => write!(f, "fallback-wait {cycles} cyc"),
            EventKind::LockAcquire { addr, wait_cycles } => {
                write!(f, "lock {addr:#x} acquired (waited {wait_cycles} cyc)")
            }
            EventKind::LockRelease { addr } => write!(f, "lock {addr:#x} released"),
            EventKind::CcmFlip { addr, bypass } => {
                write!(
                    f,
                    "ccm {addr:#x} bypass {}",
                    if bypass { "on" } else { "off" }
                )
            }
            EventKind::Split { left, right } => write!(f, "split {left:#x} -> {right:#x}"),
            EventKind::Merge { left, right } => write!(f, "merge {right:#x} into {left:#x}"),
            EventKind::Reorg { leaf } => write!(f, "reorg {leaf:#x}"),
            EventKind::Maintain { merges } => write!(f, "maintain sweep: {merges} merges"),
            EventKind::OpBegin { kind, key } => {
                write!(f, "op {} key {key}", kind.name())
            }
            EventKind::OpEnd => write!(f, "op end"),
            EventKind::SchedStep { clock } => write!(f, "sched step @{clock}"),
            EventKind::EpochAdvance { epoch } => write!(f, "epoch advance -> {epoch}"),
            EventKind::EpochReclaim { nodes, bytes } => {
                write!(f, "epoch reclaim: {nodes} nodes ({bytes} B)")
            }
            EventKind::ReadRetry { key } => write!(f, "read retry key {key}"),
            EventKind::BatchExec { ops, batched } => {
                write!(f, "batch exec {ops} ops ({batched} batched)")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_are_small_and_copy() {
        // The ring buffer stores events by value on the hot path; keep
        // them register-friendly.
        assert!(std::mem::size_of::<Event>() <= 40);
        let e = Event {
            ts: 1,
            thread: 2,
            kind: EventKind::OpEnd,
        };
        let f = e; // Copy
        assert_eq!(e, f);
    }

    #[test]
    fn display_is_human_readable() {
        let e = Event {
            ts: 1234,
            thread: 3,
            kind: EventKind::EpisodeAbort {
                kind: EpisodeKind::HtmTx,
                cause: AbortClass::FalseMetadata,
                line_addr: 0x1000,
            },
        };
        let s = e.to_string();
        assert!(s.contains("htm_tx abort"), "{s}");
        assert!(s.contains("false_metadata"), "{s}");
        assert!(s.contains("0x1000"), "{s}");
    }

    #[test]
    fn vocabulary_names_are_unique() {
        let mut seen = std::collections::HashSet::new();
        let names = EpisodeKind::ALL.iter().map(|k| k.name());
        for name in names.chain(OpKind::ALL.iter().map(|k| k.name())) {
            assert!(!name.is_empty() && seen.insert(name), "{name}");
        }
        assert!(AbortClass::UnclassifiedConflict.is_conflict());
        assert!(!AbortClass::Capacity.is_conflict());
    }
}
