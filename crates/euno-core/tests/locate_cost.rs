//! What an operation's upper stage costs on each rung of `locate`, and what
//! an uncontended get and put cost behind it — as equalities on the
//! virtual clock, so that a rung that gets dearer fails a test instead of
//! leaving a table in a document stale (DESIGN.md §4.4 cites these).
//!
//! The tree is built the same way every time: 120 000 keys in ascending
//! order, in three regions of different density, which leaves five index
//! levels of nodes that hold eight separators each (the root one, the
//! rightmost spine more) and leaves of nine records over six segments of
//! three. A subtree-hint block (1 024 keys) is two leaves where keys are
//! 64 apart, fourteen where they are 8 apart and 114 where they are
//! adjacent, so the deepest index node that holds a whole block — the
//! anchor — sits one, two and three levels above the leaves.
//!
//! The arithmetic, from `CostModel::default()`: the first access to a line
//! in an episode-free section costs 16 cycles, any other access 3; in an
//! HTM region the first access to a line costs 26 (once for the read set,
//! once for the write set). An index node is five lines: `count` and the
//! first seven separators on line 0, the next eight on line 1, then the
//! last separator, `child0`, `parent`, `version` and children 1 to 4 on
//! line 2, the other children on lines 3 and 4. One index level of this
//! tree is the node's count (a new line), three or four probes of its
//! separators (hits on the count's line, unless the search goes past the
//! seventh) and the child word (always on a new line). A walk reads no line
//! of the leaf it finds: the operation checks the leaf's fence where it
//! acts. A leaf segment is one line — its fence copy, link word, three keys
//! and three values — and a search of it bisects the three slots: two
//! probes, the first of which is the line's first touch unless the
//! segment's fence copy was.

use std::sync::Arc;

use euno_core::segment::{home_segment, HOME_ALU};
use euno_core::Segment;
use euno_core::{DefaultGuard, EunoBTreeDefault, DEFAULT_K, DEFAULT_SEGS};
use euno_htm::euno_metrics::Counter;
use euno_htm::{ConcurrentMap, CostModel, Runtime, ThreadCtx};

const FIRST: u64 = 16;
const HIT: u64 = 3;

/// count + 3 probes among the first seven separators + a child: 2 lines,
/// 3 hits.
const LEVEL: u64 = 2 * FIRST + 3 * HIT; // 41
/// The same with a fourth probe: the two leftmost children of a node of
/// eight separators (`child0` is on a child line like any other).
const LEVEL_4_PROBES: u64 = LEVEL + HIT; // 44
/// A search that probes the eighth separator or one past it reads the
/// second key line as well: the rightmost child of a node of eight
/// separators, and the right-hand side of a wider one. 3 lines, 2 hits.
const LEVEL_PAST_SEVEN: u64 = 3 * FIRST + 2 * HIT; // 54
/// The root (one separator): count + 1 probe + either child.
const ROOT: u64 = 2 * FIRST + HIT; // 35
/// The root word on the way in, and nothing on the way out: the walk reads
/// no line of the leaf (it read the home segment's copy of `seqno`, a new
/// line, until the fence took its place: 32).
const ENDS: u64 = FIRST; // 16
/// Walks from the root, by the levels each search stops at (probes in
/// search order): into the sparse region at two block boundaries — [4 2 3]
/// [4 2 1 0] [4 2 3] [4 6 7], and [4 2 3] [4 2 1 0] [4 2 3] [4 2 1] two
/// blocks on; into the medium one, by the root's right child — [4 2 1 0]
/// [4 2 1 0] [4 2 3] [4 6 7], and [4 2 1 0] [4 2 1 0] [4 6 5] [4 2 3] a
/// block on; into the dense one — [4 6 5] [4 2 1] [4 6 7] [4 2 3]; and down
/// the rightmost spine (nodes of eight to thirteen separators, every search
/// past the seventh).
const FROM_ROOT_SPARSE: u64 = ROOT + 2 * LEVEL + LEVEL_4_PROBES + LEVEL_PAST_SEVEN + ENDS; // 231
const FROM_ROOT_SPARSE_NEXT: u64 = ROOT + 3 * LEVEL + LEVEL_4_PROBES + ENDS; // 218
const FROM_ROOT_MEDIUM: u64 = ROOT + 2 * LEVEL_4_PROBES + LEVEL + LEVEL_PAST_SEVEN + ENDS; // 234
const FROM_ROOT_MEDIUM_NEXT: u64 = ROOT + 2 * LEVEL_4_PROBES + 2 * LEVEL + ENDS; // 221
/// The leaf after the one at the medium key — its index node's last
/// child — is the next index node's first: the same two levels, a search
/// of three probes, then four to the leftmost child.
const FROM_ROOT_MEDIUM_AFTER: u64 = ROOT + 3 * LEVEL_4_PROBES + LEVEL + ENDS; // 224
const FROM_ROOT_DENSE: u64 = ROOT + 3 * LEVEL + LEVEL_PAST_SEVEN + ENDS; // 228
const FROM_ROOT_SPINE: u64 = ROOT + 4 * LEVEL_PAST_SEVEN + ENDS; // 267

/// What finding a key's home segment is charged: `segment::HOME_ALU` — a
/// multiply, a shift, a multiply and a shift. `locate` computes the home
/// first, whichever rung answers: a leaf hint is checked against the home
/// segment's copy of the fence, and the operation's own check reads it.
const HOME: u64 = 4;

/// Thread-private memory, charged by hand: a table probe is a hit and two
/// ALU operations (the hash, the first tag compare), a record a hit; the
/// retirement generation is one load.
const PROBE: u64 = HIT + 2;
const RECORD: u64 = HIT;
const GENERATION: u64 = HIT;
/// Both tables are two-way. The anchor table's probe stops at the way that
/// hits: one that compares the second way's tag — a hit there, or a miss —
/// pays one ALU operation more, and no second hit (a set is one line).
const SECOND_WAY: u64 = 1;
/// A leaf-hint probe compares both ways' tags, since a block may hold two
/// entries — one ALU operation more, whatever it finds (a set is 80 B,
/// charged as one line).
const LEAF_PROBE: u64 = PROBE + SECOND_WAY;
/// The first hit of a leaf hint since it was recorded marks it used: one
/// store to the set.
const KEEP: u64 = HIT;
/// What a walk pays around the descent when both probes missed, and the
/// leaf it ends on is filed; and when the anchor probe hit in its first
/// way.
const AROUND_A_WALK: u64 = HOME + LEAF_PROBE + GENERATION + PROBE + SECOND_WAY + RECORD; // 22
const AROUND_A_HINTED_WALK: u64 = HOME + LEAF_PROBE + GENERATION + PROBE + RECORD; // 21
/// A walk from the root may file an anchor: one containment test for each
/// of the five levels (and the record, if it has one to file).
const LOOKING: u64 = 5;
/// A section that is run again charges one back-off quantum.
const BACKOFF: u64 = 40;

/// A leaf hit: the home, probe, generation, the leaf's fence (the home
/// segment's copy) outside any section — and [`KEEP`] the first time.
const LEAF_HIT: u64 = HOME + LEAF_PROBE + GENERATION + HIT; // 16

/// An episode-free read of a key that is there, in a section of its own
/// (behind a leaf hit): the fence (the home segment's copy: its line's
/// first touch), two probes and the value (hits: the same line). It read
/// `seqno` again at the end until the fence took its place (28), and a
/// value line as well until keys and values shared a segment's line (44).
const GET_TAIL: u64 = FIRST + 3 * HIT; // 25
/// The same read behind a walk, inside the walk's own section: no fence
/// check (the walk proved the leaf covers the key), so the first probe is
/// the line's first touch. (9 while the walk read `seqno` on that line.)
const GET_IN_WALK: u64 = FIRST + 2 * HIT; // 22
/// What every full segment before a spilled key's own adds to that: two
/// probes, the first its line's first touch (all three records are below
/// the key).
const GET_SPILL: u64 = FIRST + HIT; // 19
/// An overwriting put on a calm leaf: the slot hash (3 ALU), the block word
/// (1 load outside any region: a calm leaf has no CCM block, and claims no
/// mark), then the lower region — `XBEGIN` 54, two first touches at 26
/// (the home segment's line, for the fence, the read set; and again for
/// the write set), three hits (two probes and the old value), `XEND` 16.
/// The first touch that went is the value line's read (163).
const PUT_TAIL: u64 = 3 + HIT + 54 + 2 * 26 + 3 * HIT + 16; // 137
/// The same for a put: a first touch in a region is 26.
const PUT_SPILL: u64 = 26 + HIT; // 29

const PER_REGION: u64 = 40_000;
const STRIDES: [u64; 3] = [64, 8, 1];

/// The tree, and a block boundary in the middle of each region.
fn build(rt: &Arc<Runtime>) -> (EunoBTreeDefault, [u64; 3]) {
    let cost = CostModel::default();
    assert_eq!(
        (cost.plain_first_touch, cost.access_hit, cost.alu, HOME_ALU),
        (FIRST, HIT, 1, HOME)
    );
    assert_eq!(
        (
            cost.backoff_base,
            cost.xbegin,
            cost.line_first_touch,
            cost.xend
        ),
        (BACKOFF, 54, 26, 16)
    );
    let tree = EunoBTreeDefault::new(Arc::clone(rt));
    let mut ctx = rt.thread(0x10ad);
    let (mut key, mut mid) = (0u64, [0; 3]);
    for (region, stride) in STRIDES.into_iter().enumerate() {
        mid[region] = (key + PER_REGION / 2 * stride).next_multiple_of(1024);
        for _ in 0..PER_REGION {
            tree.put(&mut ctx, key, key);
            key += stride;
        }
        // The next region starts on a block boundary.
        key = key.next_multiple_of(1024);
    }
    rt.virt_prune(ctx.clock);
    rt.reset_dynamics();
    let stats = tree.stats();
    assert_eq!((stats.depth, stats.leaves), (5, 13_333), "{stats:?}");
    (tree, mid)
}

fn locate(tree: &EunoBTreeDefault, ctx: &mut ThreadCtx, key: u64) -> u64 {
    ctx.pinned(|ctx, g| {
        let start = ctx.clock;
        tree.locate(ctx, g, key);
        ctx.clock - start
    })
}

fn get(tree: &EunoBTreeDefault, ctx: &mut ThreadCtx, key: u64) -> u64 {
    let start = ctx.clock;
    assert_eq!(tree.get(ctx, key), Some(key));
    ctx.clock - start
}

fn put(tree: &EunoBTreeDefault, ctx: &mut ThreadCtx, key: u64) -> u64 {
    let start = ctx.clock;
    assert_eq!(tree.put(ctx, key, key), Some(key));
    ctx.clock - start
}

#[test]
fn each_rung_of_locate_costs_what_the_arithmetic_says() {
    let rt = Runtime::new_virtual();
    let (tree, [sparse, medium, dense]) = build(&rt);
    let mut ctx = rt.thread(1);

    // Keys 64 apart. A miss on both rungs: the walk from the root files the
    // leaf and, as the anchor, the node two levels up — the deepest that
    // holds the key's whole block, the leaf being its parent's last child.
    assert_eq!(
        locate(&tree, &mut ctx, sparse),
        AROUND_A_WALK + FROM_ROOT_SPARSE + LOOKING + RECORD // 261
    );
    // The same key again: a leaf hit, which keeps the hint the first time.
    assert_eq!(locate(&tree, &mut ctx, sparse), LEAF_HIT + KEEP);
    assert_eq!(locate(&tree, &mut ctx, sparse), LEAF_HIT);
    // Eight keys on is another leaf-hint block, and another leaf: the
    // walk starts at the anchor — two levels (4 lines, 6 hits) in place of
    // five.
    assert_eq!(
        locate(&tree, &mut ctx, sparse + 512),
        AROUND_A_HINTED_WALK + LEVEL + LEVEL_4_PROBES // 106
    );
    // Two blocks on, both leaves of the block are mid-node: the first
    // visit files the parent, the second leaf is reached from it — one
    // level (2 lines, 3 hits).
    assert_eq!(
        locate(&tree, &mut ctx, sparse + 2_048),
        AROUND_A_WALK + FROM_ROOT_SPARSE_NEXT + LOOKING + RECORD // 248
    );
    assert_eq!(
        locate(&tree, &mut ctx, sparse + 2_048 + 512),
        AROUND_A_HINTED_WALK + LEVEL // 62
    );

    // Keys 8 apart: a block is fourteen leaves and its anchor two levels up
    // (4 lines, 7 hits).
    assert_eq!(
        locate(&tree, &mut ctx, medium),
        AROUND_A_WALK + FROM_ROOT_MEDIUM + LOOKING + RECORD // 264
    );
    assert_eq!(
        locate(&tree, &mut ctx, medium + 64),
        AROUND_A_HINTED_WALK + LEVEL + LEVEL_4_PROBES // 106
    );

    // Adjacent keys: a block is 114 leaves and its anchor three levels up
    // (7 lines, 8 hits).
    assert_eq!(
        locate(&tree, &mut ctx, dense),
        AROUND_A_WALK + FROM_ROOT_DENSE + LOOKING + RECORD // 258
    );
    assert_eq!(
        locate(&tree, &mut ctx, dense + 8),
        AROUND_A_HINTED_WALK + LEVEL + LEVEL_PAST_SEVEN + LEVEL // 157
    );

    // Past the last key: down the rightmost spine, where no level has a
    // separator above the key. The walk looks for an anchor and has none
    // to file.
    assert_eq!(
        locate(&tree, &mut ctx, u64::MAX - 1),
        AROUND_A_WALK + FROM_ROOT_SPINE + LOOKING // 294
    );
}

/// The anchor table's second way: a block whose anchor was recorded before
/// another block's of the same set is found there, one tag compare later —
/// one ALU operation, and nothing else, dearer than the first-way hit of
/// `each_rung_of_locate_costs_what_the_arithmetic_says`. Which blocks share
/// a set does not depend on the tree's owner id, so the search below for
/// those that share the medium block's comes out the same every run.
#[test]
fn a_second_way_anchor_hit_costs_one_alu_more_than_a_first_way_hit() {
    let rt = Runtime::new_virtual();
    let (tree, [_, medium, dense]) = build(&rt);
    let first_way = AROUND_A_HINTED_WALK + LEVEL + LEVEL_4_PROBES; // 106
    let (mut shared, mut apart) = (0, 0);
    // Every other block of the tree: each one's walk files an anchor.
    let others = (0..=dense >> 10).filter(|&b| b != medium >> 10);
    for other in others.map(|b| b << 10) {
        let mut ctx = rt.thread(2);
        locate(&tree, &mut ctx, medium);
        locate(&tree, &mut ctx, other);
        let hits = ctx.metric(Counter::SubtreeHintHits);
        let cycles = locate(&tree, &mut ctx, medium + 64);
        assert_eq!(ctx.metric(Counter::SubtreeHintHits), hits + 1);
        match cycles - first_way {
            0 => apart += 1,
            SECOND_WAY => shared += 1,
            more => panic!("block {other}: {more} cycles over a first-way hit"),
        }
    }
    // Some 2 800 blocks over 512 sets.
    assert!(
        shared > 0 && apart > 2_500,
        "{shared} shared, {apart} apart"
    );
}

#[test]
fn an_uncontended_get_and_put_cost_their_rung_plus_a_fixed_tail() {
    let rt = Runtime::new_virtual();
    let (tree, [_, medium, _]) = build(&rt);
    let mut ctx = rt.thread(1);
    let subtree_hit = AROUND_A_HINTED_WALK + LEVEL + LEVEL_4_PROBES; // 106
    let next = medium + 1024;

    // A get that a walk answers reads the leaf in the walk's section; one
    // behind a leaf hit, in a section of its own (the first such hit keeps
    // the hint).
    assert_eq!(
        get(&tree, &mut ctx, medium),
        AROUND_A_WALK + FROM_ROOT_MEDIUM + LOOKING + RECORD + GET_IN_WALK // 286
    );
    assert_eq!(get(&tree, &mut ctx, medium + 64), subtree_hit + GET_IN_WALK); // 128
    assert_eq!(
        get(&tree, &mut ctx, medium + 64),
        LEAF_HIT + KEEP + GET_TAIL
    ); // 44
    assert_eq!(get(&tree, &mut ctx, medium + 64), LEAF_HIT + GET_TAIL); // 41

    assert_eq!(
        put(&tree, &mut ctx, next),
        AROUND_A_WALK + FROM_ROOT_MEDIUM_NEXT + LOOKING + RECORD + PUT_TAIL // 388
    );
    assert_eq!(put(&tree, &mut ctx, medium + 128), subtree_hit + PUT_TAIL); // 243
    assert_eq!(
        put(&tree, &mut ctx, medium + 128),
        LEAF_HIT + KEEP + PUT_TAIL
    ); // 156
    assert_eq!(put(&tree, &mut ctx, medium + 128), LEAF_HIT + PUT_TAIL); // 153
}

/// A put's walk reads no line of the leaf it finds: with the key's home
/// line just written by another thread — hot, so a first touch of it pays
/// the coherence transfer — the walk a put locates its leaf with costs what
/// it costs on a quiet tree, to the cycle. A get answered inside the walk's
/// section reads that line there, and pays the transfer.
#[test]
fn a_put_walk_reads_no_line_of_its_leaf() {
    let rt = Runtime::new_virtual();
    let (tree, [_, medium, _]) = build(&rt);
    let transfer = CostModel::default().line_transfer;
    let key = medium + 1024;
    let walk = AROUND_A_WALK + FROM_ROOT_MEDIUM_NEXT + LOOKING + RECORD; // 251
    let mut writer = rt.thread(3);
    assert_eq!(put(&tree, &mut writer, key), walk + PUT_TAIL);
    // Fresh threads — no hint for the key — that start after the write.
    let fresh = |id| {
        let mut ctx = rt.thread(id);
        ctx.clock = writer.clock;
        ctx
    };
    assert_eq!(locate(&tree, &mut fresh(4), key), walk);
    // (A section that reads the hot line may also be failed by the storm
    // model and run again: at least the transfer.)
    let got = get(&tree, &mut fresh(5), key);
    assert!(got >= walk + transfer + GET_IN_WALK, "{got}");
}

#[test]
fn a_key_costs_one_segment_whichever_segment_holds_it() {
    let rt = Runtime::new_virtual();
    let (tree, [sparse, _, dense]) = build(&rt);
    let mut ctx = rt.thread(1);

    // Where keys are adjacent a leaf's nine keys are one leaf-hint block
    // (eight keys) and a key more, one or two to a segment: once the leaf
    // is found and its hint kept, each key of the block is a leaf hit and
    // the same tail — the key in the sixth segment as the key in the
    // first. (A thread of its own finds a block that lies in one leaf.)
    let block = (dense..dense + 64)
        .step_by(8)
        .find(|&block| {
            let mut scout = rt.thread(2);
            scout.pinned(|scout, g| {
                let at = tree.locate(scout, g, block);
                at.low <= block && block + 8 <= at.high
            })
        })
        .expect("a leaf-hint block inside one leaf");
    get(&tree, &mut ctx, block);
    assert_eq!(get(&tree, &mut ctx, block), LEAF_HIT + KEEP + GET_TAIL); // 44
    let mut homes = [0; DEFAULT_SEGS];
    for key in block..block + 8 {
        homes[home_segment(key, DEFAULT_SEGS)] += 1;
        assert_eq!(get(&tree, &mut ctx, key), LEAF_HIT + GET_TAIL, "get {key}"); // 41
        assert_eq!(put(&tree, &mut ctx, key), LEAF_HIT + PUT_TAIL, "put {key}");
        // 153
    }
    assert!(homes.iter().all(|&n| (1..=2).contains(&n)), "{homes:?}");

    // A key that is not there costs its home segment and no other: two
    // probes, then the last slot (free: the segment has room) where a hit
    // loaded the value — the same count.
    let absent = sparse + 1;
    get(&tree, &mut ctx, sparse);
    get(&tree, &mut ctx, sparse);
    let start = ctx.clock;
    assert_eq!(tree.get(&mut ctx, absent), None);
    assert_eq!(ctx.clock - start, LEAF_HIT + GET_TAIL); // 41
}

#[test]
fn a_spilled_key_costs_one_segment_more_per_full_segment_before_it() {
    let rt = Runtime::new_virtual();
    let tree = EunoBTreeDefault::new(Arc::clone(&rt));
    let mut ctx = rt.thread(1);
    // Ten keys of one home, ascending: three fill the home segment, three
    // the next one, three the one after. All in the root leaf.
    let keys: Vec<u64> = (0..)
        .filter(|&k| home_segment(k, DEFAULT_SEGS) == 0)
        .take(10)
        .collect();
    for &key in &keys[..9] {
        tree.put(&mut ctx, key, key);
    }
    assert_eq!(tree.stats().leaves, 1);
    // Each key is its own leaf-hint block: the first visit files the leaf,
    // the second keeps the hint, the third is a plain hit.
    let third = |ctx: &mut ThreadCtx, key: u64, put_it: bool| {
        get(&tree, ctx, key);
        get(&tree, ctx, key);
        match put_it {
            false => get(&tree, ctx, key),
            true => put(&tree, ctx, key),
        }
    };
    assert_eq!(third(&mut ctx, keys[2], false), LEAF_HIT + GET_TAIL);
    assert_eq!(third(&mut ctx, keys[2], true), LEAF_HIT + PUT_TAIL);
    // Two full segments before it, first or last of its own.
    for key in [keys[6], keys[8]] {
        assert_eq!(
            third(&mut ctx, key, false),
            LEAF_HIT + GET_TAIL + 2 * GET_SPILL // 79
        );
        assert_eq!(
            third(&mut ctx, key, true),
            LEAF_HIT + PUT_TAIL + 2 * PUT_SPILL // 211
        );
    }
    // A key of that home that is not there stops where it would go: the
    // first segment on the path with room — three segments on, a line and
    // a probe, then its last slot where a hit loads the value.
    assert_eq!(tree.get(&mut ctx, keys[9]), None);
    assert_eq!(tree.get(&mut ctx, keys[9]), None);
    let start = ctx.clock;
    assert_eq!(tree.get(&mut ctx, keys[9]), None);
    assert_eq!(ctx.clock - start, LEAF_HIT + GET_TAIL + 3 * GET_SPILL); // 98
}

/// The keys of one leaf, segment by segment.
type LeafKeys = Vec<Vec<u64>>;

/// The records of `keys` a read with its cursor at `from` keeps.
fn kept(keys: &[u64], from: u64) -> usize {
    keys.iter().filter(|&&k| k >= from).count()
}

/// The loads that read a segment holding `keys` with the cursor at `from`:
/// every key, the free slot's sentinel if it has one, and a value only
/// beside a key at or above the cursor.
fn loads(keys: &[u64], from: u64) -> u64 {
    (keys.len() + usize::from(keys.len() < DEFAULT_K) + kept(keys, from)) as u64
}

/// One section of a leaf step over such a segment: the first load is its
/// line's first touch.
fn section(keys: &[u64], from: u64) -> u64 {
    FIRST + HIT * (loads(keys, from) - 1)
}

/// A leaf step with the cursor at `from`: a section a segment — but
/// segment 0 where it is `carried`, read by the walk that found the leaf —
/// and in the closing one, which reads the last two segments, `next` and
/// the closing copy of `seqno` (hits: those segments' lines); one ALU
/// operation a record kept and sorted. A step whose segment 0 was not
/// carried reads it in an opening section that first loads the fence and
/// the carried copy of `seqno` there (the fence the line's first touch).
/// A step reads no line of the leaf after it: the next step opens there.
fn step(leaf: &LeafKeys, from: u64, carried: bool) -> u64 {
    let read = (leaf.iter().enumerate()).filter(|&(i, _)| !(carried && i == 0));
    let sections: u64 = read.map(|(_, keys)| section(keys, from)).sum();
    let opening = if carried { 0 } else { 2 * HIT };
    let records: usize = leaf.iter().map(|keys| kept(keys, from)).sum();
    sections + opening + 2 * HIT + records as u64
}

/// What a walk that found a leaf reads of it inside its own section, after
/// the descent: the carried copy of `seqno` (segment 0's line's first
/// touch) and segment 0's records at or above the cursor (hits).
fn carried_by_walk(leaf: &LeafKeys, from: u64) -> u64 {
    FIRST + HIT * loads(&leaf[0], from)
}

#[test]
fn a_quiescent_scan_costs_its_rung_plus_a_fixed_step_per_leaf() {
    let rt = Runtime::new_virtual();
    let (tree, [_, medium, _]) = build(&rt);
    let mut ctx = rt.thread(1);
    // The first key of the leaf after the one at `medium` — which starts
    // below `medium`, in the subtree-hint block before — and the keys of it
    // and of the two leaves after it, segment by segment.
    let (from, leaves) = tree.pinned(|g| {
        let mut scout = rt.thread(2);
        scout.pinned(|scout, _: DefaultGuard| {
            let low = tree.locate(scout, g, medium + 72).low;
            let mut keys = |key: u64| -> LeafKeys {
                let leaf = tree.locate(scout, g, key).leaf;
                let seg = |s: &Segment<DEFAULT_K>| {
                    (0..s.count_plain())
                        .map(|i| s.key_cell(i).load_plain())
                        .collect()
                };
                leaf.segs.iter().map(seg).collect()
            };
            (low, [keys(low), keys(low + 72), keys(low + 144)])
        })
    });
    for (i, leaf) in leaves.iter().enumerate() {
        let mut all: Vec<u64> = leaf.concat();
        all.sort_unstable();
        assert!(all
            .iter()
            .copied()
            .eq((0..9).map(|j| from + 72 * i as u64 + 8 * j)));
    }
    let mut out = Vec::new();
    let mut scan = |ctx: &mut ThreadCtx, from: u64| {
        let start = ctx.clock;
        out.clear();
        assert_eq!(tree.scan(ctx, from, 16, &mut out), 16);
        assert!(out
            .iter()
            .map(|&(k, _)| k)
            .eq((0..16).map(|i| from + 8 * i)));
        ctx.clock - start
    };
    let walk = AROUND_A_WALK + FROM_ROOT_MEDIUM_AFTER + LOOKING + RECORD; // 254

    // Sixteen records are two leaves: the first is located, the second
    // opens where the first's closing section found it — and, holding the
    // seven records the scan still wants, reads no successor. The walk that
    // locates the first reads segment 0 inside its own section, with the
    // carried copy of `seqno` there, and the step skips it. (The steps the
    // line went from — 194 over two leaves of eight, with a key line and a
    // value line a segment — read the successor's `seqno` in the closing
    // section on a line no record was on.)
    let in_walk = carried_by_walk(&leaves[0], from);
    let second = step(&leaves[1], from, false);
    let first = step(&leaves[0], from, true);
    assert_eq!(scan(&mut ctx, from), walk + in_walk + first + second);
    // Behind a leaf hit (its first: it keeps the hint) the first step opens
    // as well.
    let first = step(&leaves[0], from, false);
    assert_eq!(scan(&mut ctx, from), LEAF_HIT + KEEP + first + second);

    // From mid-leaf, four records in (another slot of the leaf-hint
    // table, the same subtree-hint block: the walk starts at the anchor
    // the first scan filed, two levels up) the scan ends in a third leaf.
    // Of the records below the cursor the keys are read and the values
    // not, and none is delivered or sorted — in the segment the walk
    // carries as well; the second and third leaves open where the step
    // before found them, and the third is read whole for its first two
    // records. The line went from three leaves of eight at a fixed step
    // (686).
    let mid = from + 32;
    assert_eq!(mid >> 10, from >> 10);
    let in_walk = carried_by_walk(&leaves[0], mid);
    let subtree_hit = AROUND_A_HINTED_WALK + LEVEL + LEVEL_4_PROBES; // 106
    let first = step(&leaves[0], mid, true);
    let second = step(&leaves[1], mid, false);
    let third = step(&leaves[2], mid, false);
    assert_eq!(
        scan(&mut ctx, mid),
        subtree_hit + in_walk + first + second + third
    );
}
