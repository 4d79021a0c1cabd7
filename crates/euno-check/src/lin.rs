//! Wing–Gong-style linearizability checking against a sequential model.
//!
//! The oracle consumes a history of [`CompletedOp`]s (totally ordered
//! invocation/response tickets) and searches for a legal linearization:
//! a total order of the operations, consistent with real time (an op
//! whose response precedes another's invocation must come first), whose
//! sequential execution on a `BTreeMap` reproduces every observed output.
//!
//! The search is the classic per-thread-queue DFS: because each thread's
//! operations are sequential, only the head of each thread's queue can be
//! linearized next, and only if its invocation precedes every other
//! head's response (interval pruning). Dead-end states are memoized by a
//! pair of incremental XOR hashes — the set of linearized ops and the
//! model contents — so the checker revisits no configuration twice.
//! Histories from 4–8 threads over a few thousand operations check in
//! well under a second; a step budget turns pathological cases into an
//! explicit [`Verdict::Inconclusive`] instead of a hang.
//!
//! ## Non-atomic scans
//!
//! Euno-B+Tree and Masstree scans traverse the leaf chain a leaf at a
//! time — the paper's design, and deliberately *not* atomic: records can
//! move under a scan between leaf hops. An Euno scan's optimistic step is
//! finer still: it validates one segment (≤ K records) at a time, so what
//! it delivers from a leaf is a snapshot per segment, not per leaf; only
//! its locked rung (`scan.rs::leaf_step_locked`) reads a leaf atomically.
//! Demanding a single linearization point for such scans would reject
//! correct executions.
//! The checker therefore classifies each scan: scans whose interval
//! overlaps no other operation are effectively sequential and are checked
//! exactly inside the search; overlapping scans (when the structure
//! declares non-atomic scans) are validated against relaxed guarantees —
//! strictly ascending keys from the requested start, bounded length, and
//! every delivered record traceable to the preload or an actual put that
//! began before the scan returned — and against **regularity**, which is
//! what makes an omission visible. A scan that delivered all it was asked
//! for covers `[start, last delivered]`; a short one covers `[start, ∞)`.
//! A key in that range none of whose writes (puts and deletes) overlaps the
//! scan — each ended before the scan began or began after it returned —
//! and whose writes before the scan have a real-time-last one must be
//! delivered with that write's value, or left out if it was a delete (with
//! no write before the scan, the preload decides). A key written during
//! the scan may be delivered or missed. Trees whose scan runs in one HTM
//! region (HTM-B+Tree, HTM-Masstree) keep full atomic checking.

use std::collections::{BTreeMap, HashSet};

use crate::history::{CompletedOp, OpKind, OpOutput};

/// Outcome of checking one history.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// A legal linearization exists (and relaxed scans all validated).
    Linearizable { states_explored: u64 },
    /// No legal linearization, or a malformed/impossible observation.
    Violation { detail: String },
    /// Step budget exhausted before the search concluded.
    Inconclusive { states_explored: u64 },
}

impl Verdict {
    pub fn is_ok(&self) -> bool {
        matches!(self, Verdict::Linearizable { .. })
    }
}

/// Default DFS step budget (candidate applications).
pub const DEFAULT_BUDGET: u64 = 20_000_000;

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

fn record_hash(key: u64, value: u64) -> u64 {
    splitmix64(splitmix64(key) ^ value.wrapping_mul(0xa076_1d64_78bd_642f))
}

/// Sequential model with an incrementally maintained content hash.
struct Model {
    map: BTreeMap<u64, u64>,
    hash: u64,
}

impl Model {
    fn new(preload: &BTreeMap<u64, u64>) -> Self {
        let mut hash = 0;
        for (&k, &v) in preload {
            hash ^= record_hash(k, v);
        }
        Model {
            map: preload.clone(),
            hash,
        }
    }

    fn insert(&mut self, key: u64, value: u64) -> Option<u64> {
        let prev = self.map.insert(key, value);
        if let Some(p) = prev {
            self.hash ^= record_hash(key, p);
        }
        self.hash ^= record_hash(key, value);
        prev
    }

    fn remove(&mut self, key: u64) -> Option<u64> {
        let prev = self.map.remove(&key);
        if let Some(p) = prev {
            self.hash ^= record_hash(key, p);
        }
        prev
    }

    fn restore(&mut self, key: u64, prev: Option<u64>) {
        match prev {
            Some(v) => {
                self.insert(key, v);
            }
            None => {
                self.remove(key);
            }
        }
    }
}

/// Undo record for one applied operation.
enum Undo {
    Pure,
    Restore { key: u64, prev: Option<u64> },
}

/// Apply `op` to the model iff its output matches; return the undo.
fn try_apply(model: &mut Model, op: &CompletedOp) -> Result<Option<Undo>, String> {
    match op.kind {
        OpKind::Get => {
            let expect = model.map.get(&op.key).copied();
            match &op.output {
                OpOutput::Value(v) if *v == expect => Ok(Some(Undo::Pure)),
                OpOutput::Value(_) => Ok(None),
                other => Err(format!("get returned non-value output {other:?}")),
            }
        }
        OpKind::Put => match &op.output {
            OpOutput::Value(observed) => {
                let expect = model.map.get(&op.key).copied();
                if *observed != expect {
                    return Ok(None);
                }
                let prev = model.insert(op.key, op.arg);
                Ok(Some(Undo::Restore { key: op.key, prev }))
            }
            other => Err(format!("put returned non-value output {other:?}")),
        },
        OpKind::Delete => match &op.output {
            OpOutput::Value(observed) => {
                let expect = model.map.get(&op.key).copied();
                if *observed != expect {
                    return Ok(None);
                }
                let prev = model.remove(op.key);
                Ok(Some(Undo::Restore { key: op.key, prev }))
            }
            other => Err(format!("delete returned non-value output {other:?}")),
        },
        OpKind::Scan => match &op.output {
            OpOutput::Scan(out) => {
                let matches = {
                    let mut it = model.map.range(op.key..);
                    let mut ok = true;
                    let mut n = 0usize;
                    for &(k, v) in out {
                        match it.next() {
                            Some((&mk, &mv)) if mk == k && mv == v => n += 1,
                            _ => {
                                ok = false;
                                break;
                            }
                        }
                    }
                    // A short scan must only stop early because the count
                    // was hit or the keyspace ran out.
                    ok && (n == op.arg as usize || it.next().is_none())
                };
                if matches {
                    Ok(Some(Undo::Pure))
                } else {
                    Ok(None)
                }
            }
            other => Err(format!("scan returned non-scan output {other:?}")),
        },
        OpKind::Maintain => Err("maintain ops must be filtered before the search".into()),
    }
}

fn undo(model: &mut Model, u: Undo) {
    if let Undo::Restore { key, prev } = u {
        model.restore(key, prev);
    }
}

/// One write to a key: its interval, and the value it left (`None`: a
/// delete).
#[derive(Clone, Copy, Debug)]
struct Write {
    inv: u64,
    ret: u64,
    value: Option<u64>,
}

/// Every put and delete of `history`, by key.
fn writes_by_key(history: &[CompletedOp]) -> BTreeMap<u64, Vec<Write>> {
    let mut writes: BTreeMap<u64, Vec<Write>> = BTreeMap::new();
    for op in history {
        let value = match op.kind {
            OpKind::Put => Some(op.arg),
            OpKind::Delete => None,
            _ => continue,
        };
        writes.entry(op.key).or_default().push(Write {
            inv: op.inv,
            ret: op.ret,
            value,
        });
    }
    writes
}

/// What a scan over `[inv, ret]` must have delivered for a key with
/// `writes` and `preload` value: `Some(value)` — `Some(None)` for "left
/// out" — if no write overlaps the scan and the writes before it have a
/// real-time-last one; `None` if the key was written during the scan, or
/// its writes before it were concurrent with each other.
fn regular_value(
    inv: u64,
    ret: u64,
    writes: &[Write],
    preload: Option<u64>,
) -> Option<Option<u64>> {
    if writes.iter().any(|w| w.inv <= ret && w.ret >= inv) {
        return None;
    }
    let before: Vec<&Write> = writes.iter().filter(|w| w.ret < inv).collect();
    let Some(last) = before.iter().max_by_key(|w| w.inv) else {
        return Some(preload);
    };
    before
        .iter()
        .all(|w| std::ptr::eq(*w, *last) || w.ret < last.inv)
        .then_some(last.value)
}

/// Relaxed validation for a non-atomic scan that overlapped other ops:
/// soundness of what it delivered, then regularity over the range it
/// covers (module docs).
fn check_relaxed_scan(
    scan: &CompletedOp,
    preload: &BTreeMap<u64, u64>,
    put_index: &HashSet<(u64, u64)>,
    put_earliest_inv: &std::collections::HashMap<(u64, u64), u64>,
    writes: &BTreeMap<u64, Vec<Write>>,
) -> Result<(), String> {
    let OpOutput::Scan(out) = &scan.output else {
        return Err(format!("scan returned non-scan output {:?}", scan.output));
    };
    if out.len() > scan.arg as usize {
        return Err(format!(
            "scan delivered {} records, more than the requested {}",
            out.len(),
            scan.arg
        ));
    }
    let mut prev: Option<u64> = None;
    for &(k, v) in out {
        if k < scan.key {
            return Err(format!("scan from {} delivered smaller key {k}", scan.key));
        }
        if let Some(p) = prev {
            if k <= p {
                return Err(format!("scan keys not strictly ascending: {k} after {p}"));
            }
        }
        prev = Some(k);
        let from_preload = preload.get(&k) == Some(&v);
        let from_put = put_index.contains(&(k, v))
            && put_earliest_inv
                .get(&(k, v))
                .is_some_and(|&inv| inv < scan.ret);
        if !from_preload && !from_put {
            return Err(format!(
                "scan delivered ({k}, {v}) which no preload or preceding put produced"
            ));
        }
    }
    // Regularity: the range the scan covers, and every key there that
    // could have been read at all.
    let covered = match out.last() {
        _ if out.len() < scan.arg as usize => Some(u64::MAX),
        Some(&(last, _)) => Some(last),
        None => None,
    };
    let Some(last) = covered else {
        return Ok(());
    };
    let keys = (preload.range(scan.key..=last).map(|(&k, _)| k))
        .chain(writes.range(scan.key..=last).map(|(&k, _)| k))
        .collect::<std::collections::BTreeSet<u64>>();
    for k in keys {
        let none = Vec::new();
        let key_writes = writes.get(&k).unwrap_or(&none);
        let Some(want) = regular_value(scan.inv, scan.ret, key_writes, preload.get(&k).copied())
        else {
            continue;
        };
        let got = out
            .binary_search_by_key(&k, |&(k, _)| k)
            .ok()
            .map(|i| out[i].1);
        if got != want {
            return Err(format!(
                "scan over [{}, {last}] missed the last write of key {k}, which no write \
                 overlapped: wanted {want:?}, delivered {got:?}",
                scan.key
            ));
        }
    }
    Ok(())
}

/// Check `history` (with `preload` as the initial map contents) for
/// linearizability. `atomic_scans` declares whether the structure's scan
/// has a single linearization point; if not, overlapping scans get the
/// relaxed treatment described in the module docs.
pub fn check_history(
    history: &[CompletedOp],
    preload: &BTreeMap<u64, u64>,
    atomic_scans: bool,
    budget: u64,
) -> Verdict {
    // ---- Classify operations. -------------------------------------
    let mut searched: Vec<&CompletedOp> = Vec::with_capacity(history.len());
    let mut relaxed: Vec<&CompletedOp> = Vec::new();

    // Interval index for the overlap test: an op overlaps a scan s iff
    // inv < s.ret && ret > s.inv. Count via two sorted stamp arrays.
    let mut invs: Vec<u64> = history.iter().map(|o| o.inv).collect();
    let mut rets: Vec<u64> = history.iter().map(|o| o.ret).collect();
    invs.sort_unstable();
    rets.sort_unstable();
    let overlaps_someone = |s: &CompletedOp| {
        let started_before_ret = invs.partition_point(|&x| x < s.ret);
        let ended_before_inv = rets.partition_point(|&x| x <= s.inv);
        // Ops with inv < s.ret minus those fully before s, minus s itself.
        started_before_ret - ended_before_inv > 1
    };

    for op in history {
        match op.kind {
            OpKind::Maintain => match &op.output {
                OpOutput::Count(_) => {}
                other => {
                    return Verdict::Violation {
                        detail: format!("maintain returned non-count output {other:?}"),
                    }
                }
            },
            OpKind::Scan if !atomic_scans && overlaps_someone(op) => relaxed.push(op),
            _ => searched.push(op),
        }
    }

    // ---- Relaxed scans. -------------------------------------------
    if !relaxed.is_empty() {
        let writes = writes_by_key(history);
        let mut put_index = HashSet::new();
        let mut put_earliest_inv = std::collections::HashMap::new();
        for op in history {
            if op.kind == OpKind::Put {
                put_index.insert((op.key, op.arg));
                put_earliest_inv
                    .entry((op.key, op.arg))
                    .and_modify(|e: &mut u64| *e = (*e).min(op.inv))
                    .or_insert(op.inv);
            }
        }
        for scan in &relaxed {
            if let Err(detail) =
                check_relaxed_scan(scan, preload, &put_index, &put_earliest_inv, &writes)
            {
                return Verdict::Violation {
                    detail: format!(
                        "relaxed scan (thread {}, from {}): {detail}",
                        scan.thread, scan.key
                    ),
                };
            }
        }
    }

    // ---- Wing–Gong search over the rest. --------------------------
    let nthreads_max = searched.iter().map(|o| o.thread).max().map_or(0, |t| t + 1);
    let mut queues: Vec<Vec<&CompletedOp>> = vec![Vec::new(); nthreads_max as usize];
    for op in &searched {
        queues[op.thread as usize].push(op);
    }
    for q in &mut queues {
        q.sort_by_key(|o| o.inv);
    }
    queues.retain(|q| !q.is_empty());
    let total: usize = queues.iter().map(Vec::len).sum();

    // Zobrist codes: one per (queue, position).
    let mut op_code: Vec<Vec<u64>> = Vec::with_capacity(queues.len());
    let mut serial = 0u64;
    for q in &queues {
        op_code.push(
            q.iter()
                .map(|_| {
                    serial += 1;
                    splitmix64(serial.wrapping_mul(0xd6e8_feb8_6659_fd93))
                })
                .collect(),
        );
    }

    let mut model = Model::new(preload);
    let mut heads = vec![0usize; queues.len()];
    let mut linset_hash = 0u64;
    let mut linearized = 0usize;
    // Per-depth: next queue index to try. Parallel stack of applications.
    let mut frames: Vec<usize> = vec![0];
    let mut applied: Vec<(usize, Undo)> = Vec::new();
    let mut memo: HashSet<(u64, u64)> = HashSet::new();
    let mut steps = 0u64;

    loop {
        if linearized == total {
            return Verdict::Linearizable {
                states_explored: steps,
            };
        }
        let min_ret = queues
            .iter()
            .zip(&heads)
            .filter_map(|(q, &h)| q.get(h).map(|o| o.ret))
            .min()
            .expect("unfinished search has pending heads");

        let start = *frames.last().expect("frame stack never empties mid-loop");
        let mut descended = false;
        for qi in start..queues.len() {
            let h = heads[qi];
            let Some(op) = queues[qi].get(h) else {
                continue;
            };
            if op.inv > min_ret {
                continue;
            }
            steps += 1;
            if steps > budget {
                return Verdict::Inconclusive {
                    states_explored: steps,
                };
            }
            let applied_op = match try_apply(&mut model, op) {
                Ok(a) => a,
                Err(detail) => return Verdict::Violation { detail },
            };
            let Some(u) = applied_op else { continue };
            let child_linset = linset_hash ^ op_code[qi][h];
            if memo.contains(&(child_linset, model.hash)) {
                undo(&mut model, u);
                continue;
            }
            // Descend.
            *frames.last_mut().unwrap() = qi + 1;
            frames.push(0);
            applied.push((qi, u));
            heads[qi] += 1;
            linset_hash = child_linset;
            linearized += 1;
            descended = true;
            break;
        }
        if descended {
            continue;
        }
        // Dead end: remember, back up.
        memo.insert((linset_hash, model.hash));
        frames.pop();
        if frames.is_empty() {
            let pending: Vec<String> = queues
                .iter()
                .zip(&heads)
                .filter_map(|(q, &h)| q.get(h))
                .map(|o| {
                    format!(
                        "thread {} {:?} key {} arg {} → {:?}",
                        o.thread, o.kind, o.key, o.arg, o.output
                    )
                })
                .collect();
            return Verdict::Violation {
                detail: format!(
                    "no legal linearization ({total} ops, {steps} states explored); \
                     first stuck frontier: [{}]",
                    pending.join("; ")
                ),
            };
        }
        let (qi, u) = applied.pop().expect("applied stack parallels frames");
        heads[qi] -= 1;
        linset_hash ^= op_code[qi][heads[qi]];
        linearized -= 1;
        undo(&mut model, u);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(
        thread: u32,
        kind: OpKind,
        key: u64,
        arg: u64,
        inv: u64,
        ret: u64,
        output: OpOutput,
    ) -> CompletedOp {
        CompletedOp {
            thread,
            kind,
            key,
            arg,
            inv,
            ret,
            output,
        }
    }

    #[test]
    fn accepts_a_valid_concurrent_history() {
        // T0: put(1,10) over [0,5]; T1: get(1) over [2,3] may see either
        // None or 10 — both must be accepted.
        let pre = BTreeMap::new();
        for observed in [None, Some(10)] {
            let h = vec![
                op(0, OpKind::Put, 1, 10, 0, 5, OpOutput::Value(None)),
                op(1, OpKind::Get, 1, 0, 2, 3, OpOutput::Value(observed)),
            ];
            assert!(
                check_history(&h, &pre, true, DEFAULT_BUDGET).is_ok(),
                "get observing {observed:?} is legal"
            );
        }
    }

    #[test]
    fn rejects_a_stale_read() {
        // put(1,10) fully completes before the get begins; None is stale.
        let pre = BTreeMap::new();
        let h = vec![
            op(0, OpKind::Put, 1, 10, 0, 1, OpOutput::Value(None)),
            op(1, OpKind::Get, 1, 0, 2, 3, OpOutput::Value(None)),
        ];
        match check_history(&h, &pre, true, DEFAULT_BUDGET) {
            Verdict::Violation { .. } => {}
            v => panic!("stale read accepted: {v:?}"),
        }
    }

    #[test]
    fn rejects_a_lost_update() {
        // Two sequential puts to one key; a later get sees the first value.
        let pre = BTreeMap::new();
        let h = vec![
            op(0, OpKind::Put, 7, 1, 0, 1, OpOutput::Value(None)),
            op(0, OpKind::Put, 7, 2, 2, 3, OpOutput::Value(Some(1))),
            op(1, OpKind::Get, 7, 0, 4, 5, OpOutput::Value(Some(1))),
        ];
        match check_history(&h, &pre, true, DEFAULT_BUDGET) {
            Verdict::Violation { .. } => {}
            v => panic!("lost update accepted: {v:?}"),
        }
    }

    #[test]
    fn rejects_wrong_previous_value_from_delete() {
        let pre = BTreeMap::from([(5, 50)]);
        let h = vec![op(0, OpKind::Delete, 5, 0, 0, 1, OpOutput::Value(None))];
        assert!(!check_history(&h, &pre, true, DEFAULT_BUDGET).is_ok());
        let h = vec![op(0, OpKind::Delete, 5, 0, 0, 1, OpOutput::Value(Some(50)))];
        assert!(check_history(&h, &pre, true, DEFAULT_BUDGET).is_ok());
    }

    #[test]
    fn atomic_scan_must_match_some_instant() {
        let pre = BTreeMap::from([(1, 10), (2, 20)]);
        // put(3,30) concurrent with a scan: [1,2] and [1,2,3] both legal...
        let put = op(0, OpKind::Put, 3, 30, 0, 9, OpOutput::Value(None));
        for (out, legal) in [
            (vec![(1, 10), (2, 20)], true),
            (vec![(1, 10), (2, 20), (3, 30)], true),
            // ...but seeing key 3 without key 2 is no instant at all.
            (vec![(1, 10), (3, 30)], false),
        ] {
            let h = vec![
                put.clone(),
                op(1, OpKind::Scan, 1, 10, 3, 6, OpOutput::Scan(out.clone())),
            ];
            assert_eq!(
                check_history(&h, &pre, true, DEFAULT_BUDGET).is_ok(),
                legal,
                "scan output {out:?}"
            );
        }
    }

    #[test]
    fn relaxed_scan_allows_split_brain_but_not_forgery() {
        let pre = BTreeMap::from([(1, 10), (2, 20)]);
        let put = op(0, OpKind::Put, 3, 30, 0, 9, OpOutput::Value(None));
        // Non-atomic scans may miss an intermediate key written during the
        // scan while seeing later ones (no single instant: key 2 is there
        // throughout, as 20 or 21) — accepted under relaxed rules.
        let h = vec![
            put.clone(),
            op(2, OpKind::Put, 2, 21, 1, 8, OpOutput::Value(Some(20))),
            op(
                1,
                OpKind::Scan,
                1,
                10,
                3,
                6,
                OpOutput::Scan(vec![(1, 10), (3, 30)]),
            ),
        ];
        assert!(check_history(&h, &pre, false, DEFAULT_BUDGET).is_ok());
        // But a value nobody ever wrote is still a violation.
        let h = vec![
            put.clone(),
            op(
                1,
                OpKind::Scan,
                1,
                10,
                3,
                6,
                OpOutput::Scan(vec![(1, 10), (3, 99)]),
            ),
        ];
        assert!(!check_history(&h, &pre, false, DEFAULT_BUDGET).is_ok());
        // And so is disorder.
        let h = vec![
            put,
            op(
                1,
                OpKind::Scan,
                1,
                10,
                3,
                6,
                OpOutput::Scan(vec![(2, 20), (1, 10)]),
            ),
        ];
        assert!(!check_history(&h, &pre, false, DEFAULT_BUDGET).is_ok());
    }

    /// An overlapping scan of `count` from `from` over `[3, 6]`, beside
    /// `others`, checked relaxed.
    fn relaxed(
        pre: &BTreeMap<u64, u64>,
        from: u64,
        count: u64,
        out: Vec<(u64, u64)>,
        others: Vec<CompletedOp>,
    ) -> Verdict {
        let mut h = others;
        h.push(op(1, OpKind::Scan, from, count, 3, 6, OpOutput::Scan(out)));
        check_history(&h, pre, false, DEFAULT_BUDGET)
    }

    /// A get of a key no history here writes or preloads, overlapping the
    /// scan: what makes the scan a relaxed one.
    fn unrelated_get() -> CompletedOp {
        op(3, OpKind::Get, 50, 0, 2, 7, OpOutput::Value(None))
    }

    #[test]
    fn a_relaxed_scan_must_not_miss_a_key_no_one_touched() {
        // Preloaded 1..=10, a full scan of 10 that delivers 1 and 10 only,
        // beside an unrelated get: the keys between were there throughout.
        let pre: BTreeMap<u64, u64> = (1..=10).map(|k| (k, k * 10)).collect();
        let v = relaxed(&pre, 1, 10, vec![(1, 10), (10, 100)], vec![unrelated_get()]);
        assert!(
            matches!(&v, Verdict::Violation { detail } if detail.contains("key 2")),
            "{v:?}"
        );
        // The whole range is fine; a value nobody wrote is refused.
        let all: Vec<(u64, u64)> = pre.iter().map(|(&k, &v)| (k, v)).collect();
        assert!(relaxed(&pre, 1, 10, all.clone(), vec![unrelated_get()]).is_ok());
        let mut stale = all;
        stale[4].1 = 7;
        assert!(!relaxed(&pre, 1, 10, stale, vec![unrelated_get()]).is_ok());
    }

    #[test]
    fn a_full_scan_covers_up_to_its_last_record_and_a_short_one_to_the_end() {
        let pre = BTreeMap::from([(1, 10), (2, 20), (3, 30)]);
        // Two asked for, two delivered: key 3 is past the range covered.
        assert!(relaxed(&pre, 1, 2, vec![(1, 10), (2, 20)], vec![unrelated_get()]).is_ok());
        // Ten asked for, two delivered: the scan says the map ends there.
        let v = relaxed(&pre, 1, 10, vec![(1, 10), (2, 20)], vec![unrelated_get()]);
        assert!(
            matches!(&v, Verdict::Violation { detail } if detail.contains("key 3")),
            "{v:?}"
        );
        // Nothing asked for covers nothing.
        assert!(relaxed(&pre, 1, 0, vec![], vec![unrelated_get()]).is_ok());
    }

    #[test]
    fn a_key_written_during_the_scan_may_be_missing_or_either_value() {
        let pre = BTreeMap::from([(1, 10), (2, 20), (3, 30)]);
        for write in [
            op(0, OpKind::Put, 2, 21, 2, 4, OpOutput::Value(Some(20))),
            op(0, OpKind::Delete, 2, 0, 5, 9, OpOutput::Value(Some(20))),
            // Begun before the scan, ended inside it.
            op(0, OpKind::Put, 2, 21, 0, 4, OpOutput::Value(Some(20))),
        ] {
            let write = vec![write, unrelated_get()];
            let value = match write[0].kind {
                OpKind::Put => write[0].arg,
                _ => 20,
            };
            for out in [
                vec![(1, 10), (3, 30)],
                vec![(1, 10), (2, 20), (3, 30)],
                vec![(1, 10), (2, value), (3, 30)],
            ] {
                let v = relaxed(&pre, 1, 10, out.clone(), write.clone());
                assert!(v.is_ok(), "{write:?}: {out:?} {v:?}");
            }
        }
    }

    #[test]
    fn a_key_written_only_before_or_after_the_scan_is_its_last_write_before() {
        let pre = BTreeMap::from([(1, 10), (2, 20), (3, 30)]);
        let before = |kind, arg| op(0, kind, 2, arg, 0, 1, OpOutput::Value(Some(20)));
        let after = op(2, OpKind::Put, 2, 29, 7, 8, OpOutput::Value(Some(22)));
        // Overwritten before: the new value, not the preloaded one.
        let put = before(OpKind::Put, 22);
        let others = || vec![put.clone(), after.clone(), unrelated_get()];
        assert!(relaxed(&pre, 1, 10, vec![(1, 10), (2, 22), (3, 30)], others()).is_ok());
        assert!(!relaxed(&pre, 1, 10, vec![(1, 10), (2, 20), (3, 30)], others()).is_ok());
        assert!(!relaxed(&pre, 1, 10, vec![(1, 10), (3, 30)], others()).is_ok());
        // Deleted before: left out.
        let del = before(OpKind::Delete, 0);
        let others = || vec![del.clone(), unrelated_get()];
        let v = relaxed(&pre, 1, 10, vec![(1, 10), (2, 20), (3, 30)], others());
        assert!(
            matches!(&v, Verdict::Violation { detail } if detail.contains("key 2")),
            "{v:?}"
        );
        assert!(relaxed(&pre, 1, 10, vec![(1, 10), (3, 30)], others()).is_ok());
        // Two writes before the scan, concurrent with each other: either
        // may be the last, so neither value is required.
        let twins = vec![
            op(0, OpKind::Put, 2, 22, 0, 2, OpOutput::Value(Some(20))),
            op(2, OpKind::Delete, 2, 0, 1, 2, OpOutput::Value(Some(22))),
            unrelated_get(),
        ];
        for out in [vec![(1, 10), (3, 30)], vec![(1, 10), (2, 22), (3, 30)]] {
            let v = relaxed(&pre, 1, 10, out.clone(), twins.clone());
            assert!(v.is_ok(), "{out:?}: {v:?}");
        }
    }

    #[test]
    fn nonoverlapping_scan_is_checked_exactly_even_when_relaxed() {
        // The same missing-middle output is a violation when the scan ran
        // in isolation: there is no concurrency to excuse it.
        let pre = BTreeMap::from([(1, 10), (2, 20), (3, 30)]);
        let h = vec![op(
            1,
            OpKind::Scan,
            1,
            10,
            0,
            1,
            OpOutput::Scan(vec![(1, 10), (3, 30)]),
        )];
        assert!(!check_history(&h, &pre, false, DEFAULT_BUDGET).is_ok());
    }

    #[test]
    fn budget_exhaustion_is_inconclusive_not_wrong() {
        let pre = BTreeMap::new();
        let mut h = Vec::new();
        // Many concurrent independent puts: huge interleaving space.
        for t in 0..6u32 {
            for i in 0..4u64 {
                let k = u64::from(t) * 100 + i;
                h.push(op(t, OpKind::Put, k, k, 0, 1_000, OpOutput::Value(None)));
            }
        }
        // Make per-thread stamps distinct and overlapping across threads.
        for (i, o) in h.iter_mut().enumerate() {
            o.inv = i as u64;
            o.ret = 500 + i as u64;
        }
        match check_history(&h, &pre, true, 10) {
            Verdict::Inconclusive { .. } => {}
            v => panic!("expected budget exhaustion, got {v:?}"),
        }
        assert!(check_history(&h, &pre, true, DEFAULT_BUDGET).is_ok());
    }

    #[test]
    fn memoization_handles_wide_histories_quickly() {
        // 4 threads × 500 disjoint-key puts, all pairwise overlapping:
        // naive DFS would be astronomic; memoized interval pruning walks
        // straight through.
        let pre = BTreeMap::new();
        let mut h = Vec::new();
        let mut stamp = 0u64;
        for i in 0..500u64 {
            for t in 0..4u32 {
                let mut o = op(
                    t,
                    OpKind::Put,
                    u64::from(t) * 10_000 + i,
                    i,
                    0,
                    0,
                    OpOutput::Value(None),
                );
                o.inv = stamp;
                o.ret = stamp + 6; // overlaps the other threads' heads
                stamp += 1;
                h.push(o);
            }
        }
        let v = check_history(&h, &pre, true, DEFAULT_BUDGET);
        assert!(v.is_ok(), "{v:?}");
    }
}
