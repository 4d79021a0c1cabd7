//! HTM-Masstree's stated flaw is its shared-metadata write: every writer
//! bumps the node's version word inside its region, and every overlapping
//! reader of that node has the word in its read set. The abort taxonomy
//! must say so — a collision on the version word is `false_metadata`, not
//! a record conflict. (Until PR 23 `HtmMasstree` registered the whole leaf
//! `Record`, header line included, so every recorded row read
//! `false_metadata` 0.0000; both Masstrees now register through
//! `Leaf::register`.)

use std::sync::Arc;

use euno_baselines::HtmMasstree;
use euno_htm::{AbortClass, ConcurrentMap, Runtime, ThreadCtx};

#[test]
fn a_version_word_collision_on_different_keys_is_false_metadata() {
    let rt = Runtime::new_virtual();
    let t = HtmMasstree::new(Arc::clone(&rt));
    {
        // One full leaf: keys 0..8 have their values on the leaf's third
        // line, keys 8..16 on its fourth.
        let mut ctx = rt.thread(0);
        for k in 0..16u64 {
            t.put(&mut ctx, k, k);
        }
    }
    rt.reset_dynamics();
    // Writers delete and restore keys of the low half — a delete writes
    // one value and bumps the version word; restoring a tombstoned key is
    // an update and bumps nothing — while readers get keys of the high
    // half. No key array is written, so the only line a reader shares
    // with a writer is the header: version word and count.
    let mut ctxs: Vec<ThreadCtx> = (1..=6).map(|i| rt.thread(i)).collect();
    for round in 0..1_200u64 {
        let idx = (0..ctxs.len())
            .min_by_key(|&i| (ctxs[i].clock, i))
            .expect("six threads");
        if idx % 2 == 0 {
            let key = idx as u64 / 2;
            if t.delete(&mut ctxs[idx], key).is_none() {
                t.put(&mut ctxs[idx], key, round);
            }
        } else {
            let key = 8 + round % 8;
            assert!(t.get(&mut ctxs[idx], key).is_some(), "key {key}");
        }
    }
    let readers: Vec<_> = ctxs.iter().skip(1).step_by(2).collect();
    let on_header: u64 = readers
        .iter()
        .map(|c| c.counts()[AbortClass::FalseMetadata])
        .sum();
    let on_records: u64 = readers
        .iter()
        .map(|c| {
            c.counts()[AbortClass::FalseDifferentRecord] + c.counts()[AbortClass::TrueSameRecord]
        })
        .sum();
    assert!(on_header > 0, "no reader met a version bump");
    assert_eq!(
        on_records, 0,
        "a reader shares no record line with a writer"
    );
}
