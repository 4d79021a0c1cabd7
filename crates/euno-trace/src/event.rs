//! The event schema (DESIGN.md §13).
//!
//! Events are small `Copy` records: a cycle timestamp, the emitting
//! thread, and a kind-specific payload. Payloads use raw `u64` addresses
//! and `u8` code points rather than engine types — this crate sits below
//! `euno-htm` in the dependency graph, so the engine maps its own enums
//! (episode kinds, abort causes) onto the [`codes`] constants at the
//! emission site.

use std::fmt;

/// Stable code points for episode kinds and abort causes. The engine
/// translates its richer enums into these at emission time; exporters
/// translate them back into names.
pub mod codes {
    /// Episode kinds (`EpisodeKind` in `euno-htm`).
    pub const EP_HTM_TX: u8 = 0;
    pub const EP_FALLBACK: u8 = 1;
    pub const EP_OPTIMISTIC_READ: u8 = 2;
    pub const EP_LOCKED_WRITE: u8 = 3;

    /// Abort causes (`AbortCause` + `ConflictKind` in `euno-htm`).
    pub const AB_CONFLICT_TRUE: u8 = 0;
    pub const AB_CONFLICT_FALSE_RECORD: u8 = 1;
    pub const AB_CONFLICT_FALSE_METADATA: u8 = 2;
    pub const AB_CONFLICT_FALSE_STRUCTURE: u8 = 3;
    pub const AB_CONFLICT_UNCLASSIFIED: u8 = 4;
    pub const AB_CAPACITY: u8 = 5;
    pub const AB_EXPLICIT: u8 = 6;
    pub const AB_SPURIOUS: u8 = 7;
    pub const AB_FALLBACK_LOCKED: u8 = 8;

    /// Client operation kinds (`OpKind` in `euno-check`).
    pub const OP_GET: u8 = 0;
    pub const OP_PUT: u8 = 1;
    pub const OP_DELETE: u8 = 2;
    pub const OP_SCAN: u8 = 3;
    pub const OP_MAINTAIN: u8 = 4;

    pub fn episode_name(kind: u8) -> &'static str {
        match kind {
            EP_HTM_TX => "htm_tx",
            EP_FALLBACK => "fallback",
            EP_OPTIMISTIC_READ => "optimistic_read",
            EP_LOCKED_WRITE => "locked_write",
            _ => "episode?",
        }
    }

    pub fn cause_name(cause: u8) -> &'static str {
        match cause {
            AB_CONFLICT_TRUE => "conflict_true_same_record",
            AB_CONFLICT_FALSE_RECORD => "conflict_false_different_record",
            AB_CONFLICT_FALSE_METADATA => "conflict_false_metadata",
            AB_CONFLICT_FALSE_STRUCTURE => "conflict_false_structure",
            AB_CONFLICT_UNCLASSIFIED => "conflict_unclassified",
            AB_CAPACITY => "capacity",
            AB_EXPLICIT => "explicit",
            AB_SPURIOUS => "spurious",
            AB_FALLBACK_LOCKED => "fallback_locked",
            _ => "abort?",
        }
    }

    /// Whether a cause code denotes a data conflict (it then carries a
    /// meaningful conflicting-line address).
    pub fn is_conflict(cause: u8) -> bool {
        cause <= AB_CONFLICT_UNCLASSIFIED
    }

    pub fn op_name(kind: u8) -> &'static str {
        match kind {
            OP_GET => "get",
            OP_PUT => "put",
            OP_DELETE => "delete",
            OP_SCAN => "scan",
            OP_MAINTAIN => "maintain",
            _ => "op?",
        }
    }
}

/// What happened. Addresses are raw (`usize as u64`) so the profiler can
/// resolve them to owning objects after the run; `0` means "no address".
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// An episode (HTM attempt, fallback, optimistic read, locked write)
    /// started.
    EpisodeBegin {
        kind: u8,
    },
    /// The episode committed / finished successfully.
    EpisodeCommit {
        kind: u8,
    },
    /// The episode aborted. `line_addr` is the base address of the
    /// conflicting cache line for conflict causes, else 0.
    EpisodeAbort {
        kind: u8,
        cause: u8,
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
        kind: u8,
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
            EventKind::EpisodeBegin { kind } => write!(f, "{} begin", codes::episode_name(kind)),
            EventKind::EpisodeCommit { kind } => write!(f, "{} commit", codes::episode_name(kind)),
            EventKind::EpisodeAbort {
                kind,
                cause,
                line_addr,
            } => {
                write!(
                    f,
                    "{} abort: {}",
                    codes::episode_name(kind),
                    codes::cause_name(cause)
                )?;
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
                write!(f, "op {} key {key}", codes::op_name(kind))
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
                kind: codes::EP_HTM_TX,
                cause: codes::AB_CONFLICT_FALSE_METADATA,
                line_addr: 0x1000,
            },
        };
        let s = e.to_string();
        assert!(s.contains("htm_tx abort"), "{s}");
        assert!(s.contains("conflict_false_metadata"), "{s}");
        assert!(s.contains("0x1000"), "{s}");
    }

    #[test]
    fn code_names_cover_all_codes() {
        for k in 0..4 {
            assert!(!codes::episode_name(k).contains('?'));
        }
        for c in 0..9 {
            assert!(!codes::cause_name(c).contains('?'));
        }
        assert!(codes::is_conflict(codes::AB_CONFLICT_UNCLASSIFIED));
        assert!(!codes::is_conflict(codes::AB_CAPACITY));
    }
}
