//! What an operation's upper stage costs on each rung of `locate`, and what
//! an uncontended get and put cost behind it — as equalities on the
//! virtual clock, so that a rung that gets dearer fails a test instead of
//! leaving a table in a document stale (DESIGN.md §4.4 cites these).
//!
//! The tree is built the same way every time: 120 000 keys in ascending
//! order, in three regions of different density, which leaves five index
//! levels of nodes that hold eight separators each (the root one, its
//! second child ten) and leaves of eight records, two to a segment. A
//! subtree-hint block (1 024 keys) is 2 leaves where keys are 64 apart,
//! 16 leaves where they are 8 apart and 128 leaves where they are
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
//! seventh) and the child word (always on a new line).

use std::sync::Arc;

use euno_core::segment::{home_segment, HOME_ALU};
use euno_core::EunoBTreeDefault;
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
/// second key line as well: the two rightmost children of a node of eight
/// separators, and the right-hand side of a wider one. 3 lines, 2 hits.
const LEVEL_PAST_SEVEN: u64 = 3 * FIRST + 2 * HIT; // 54
/// The root (one separator): count + 1 probe + either child.
const ROOT: u64 = 2 * FIRST + HIT; // 35
/// The root word on the way in, the leaf's `seqno` on the way out: the
/// copy on the key's home segment, whose key line is a new line as the
/// header line it replaced was.
const ENDS: u64 = 2 * FIRST; // 32
/// Walks from the root, by the levels each search stops at: into the sparse
/// region (by the root's left child) at two block boundaries, into the
/// medium one (by its right child, where the next node down takes a fourth
/// probe) at two, into the dense one (past the seventh separator of the
/// root's right child, ten wide, and then by a `child0`), and down the
/// rightmost spine (nodes still filling up, nine to thirteen separators
/// each, every search past the seventh).
const FROM_ROOT_SPARSE: u64 = ROOT + 2 * LEVEL + 2 * LEVEL_PAST_SEVEN + ENDS; // 257
const FROM_ROOT_SPARSE_NEXT: u64 = ROOT + 3 * LEVEL + LEVEL_PAST_SEVEN + ENDS; // 244
const FROM_ROOT_MEDIUM: u64 = ROOT + LEVEL_4_PROBES + 3 * LEVEL + ENDS; // 234
const FROM_ROOT_MEDIUM_NEXT: u64 = ROOT + LEVEL_4_PROBES + 2 * LEVEL + LEVEL_PAST_SEVEN + ENDS; // 247
const FROM_ROOT_DENSE: u64 = ROOT + LEVEL_PAST_SEVEN + 2 * LEVEL + LEVEL_4_PROBES + ENDS; // 247
const FROM_ROOT_SPINE: u64 = ROOT + 4 * LEVEL_PAST_SEVEN + ENDS; // 283

/// What finding a key's home segment is charged: `segment::HOME_ALU`.
/// `locate` computes the home first, whichever rung answers: every rung
/// reads the home segment's copy of `seqno`.
const HOME: u64 = 6;

/// Thread-private memory, charged by hand: a table probe is a hit and two
/// ALU operations (the hash, the first tag compare), a record a hit; the
/// retirement generation is one load.
const PROBE: u64 = HIT + 2;
const RECORD: u64 = HIT;
const GENERATION: u64 = HIT;
/// The anchor table is two-way: a probe that compares the second way's
/// tag — a hit there, or a miss — pays one ALU operation more, and no
/// second hit (a set is one line).
const SECOND_WAY: u64 = 1;
/// What a walk pays around the descent when both probes missed, and the
/// leaf it ends on is filed; and when the anchor probe hit in its first
/// way.
const AROUND_A_WALK: u64 = HOME + PROBE + GENERATION + PROBE + SECOND_WAY + RECORD; // 23
const AROUND_A_HINTED_WALK: u64 = HOME + PROBE + GENERATION + PROBE + RECORD; // 22
/// A walk from the root may file an anchor: one containment test for each
/// of the five levels (and the record, if it has one to file).
const LOOKING: u64 = 5;
/// A section that is run again charges one back-off quantum.
const BACKOFF: u64 = 40;

/// A leaf hit: the home, probe, generation, the leaf's `seqno` outside any
/// section.
const LEAF_HIT: u64 = HOME + PROBE + GENERATION + HIT; // 17

/// An episode-free read of a key that is there, in a section of its own
/// (behind a leaf hit): `seqno` (the home segment's copy: a new line
/// there), the home segment's count (a hit: the same key line), two probes
/// — what a hit takes among two records, and the third of four — the value
/// (a new line), `seqno` again. The line that went is the header's: the
/// count was the key line's first touch, and 13 cycles dearer (63), until
/// `seqno` moved onto it. One segment, whichever it is: the walk over
/// segments 0, 1, 2 … that the home search replaced read a key line and
/// four or five hits for every segment before the key's own.
const GET_TAIL: u64 = 2 * FIRST + 4 * HIT; // 44
/// The same read behind a walk, inside the walk's own section, right after
/// the walk's `seqno`: no `seqno` load of its own at either end.
const GET_IN_WALK: u64 = GET_TAIL - FIRST - HIT; // 25
/// What every full segment before a spilled key's own adds to that: its
/// count (a new line) and two probes (four records, all below the key).
const GET_SPILL: u64 = FIRST + 2 * HIT; // 22
/// An overwriting put on a calm leaf: the slot hash (3 ALU), the block word
/// (1 load outside any region: a calm leaf has no CCM block, and claims no
/// mark), then the lower region — `XBEGIN` 54, three first touches at 26
/// (the home segment's key line, for `seqno`; its values for the read
/// set, and again for the write set), three hits (the count and two
/// probes), `XEND` 16. The load that went is the mark word's, which a
/// calm put tested while every leaf carried its CCM (166); the line that
/// went before it is the header's, a fourth first touch (195 with the
/// home, which `locate` now pays).
const PUT_TAIL: u64 = 3 + HIT + 54 + 3 * 26 + 3 * HIT + 16; // 163
/// The same for a put: a first touch in a region is 26.
const PUT_SPILL: u64 = 26 + 2 * HIT; // 32

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
    assert_eq!((stats.depth, stats.leaves), (5, 14_999), "{stats:?}");
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

    // Keys 64 apart. A miss on both rungs: the walk from the root (root's
    // left child, then levels of 3 probes each, the last two past the
    // seventh separator) files the leaf and, as the anchor, the leaf's
    // parent.
    assert_eq!(
        locate(&tree, &mut ctx, sparse),
        AROUND_A_WALK + FROM_ROOT_SPARSE + LOOKING + RECORD // 288
    );
    // The same key again: a leaf hit.
    assert_eq!(locate(&tree, &mut ctx, sparse), LEAF_HIT);
    // The next leaf is the last under that parent — no separator there is
    // above its keys — so the hint is turned away: one level walked for
    // nothing (no `seqno` read), then, in the same section, the walk from
    // the root — whose last level is that one again, five hits now. No
    // back-off: nothing was contended.
    assert_eq!(
        locate(&tree, &mut ctx, sparse + 512),
        HOME + PROBE
            + GENERATION
            + PROBE
            + LEVEL_PAST_SEVEN
            + (FROM_ROOT_SPARSE - LEVEL_PAST_SEVEN + 5 * HIT)
            + LOOKING
            + 2 * RECORD // 302
    );
    // Two blocks on, both leaves of the block are mid-node: the first
    // visit files the parent, the second leaf is reached from it — one
    // level (2 lines, 3 hits) in place of five.
    assert_eq!(
        locate(&tree, &mut ctx, sparse + 2_048),
        AROUND_A_WALK + FROM_ROOT_SPARSE_NEXT + LOOKING + RECORD // 275
    );
    assert_eq!(
        locate(&tree, &mut ctx, sparse + 2_048 + 512),
        AROUND_A_HINTED_WALK + LEVEL + FIRST // 79
    );

    // Keys 8 apart: a block is 16 leaves and its anchor two levels up
    // (5 lines, 5 hits).
    assert_eq!(
        locate(&tree, &mut ctx, medium),
        AROUND_A_WALK + FROM_ROOT_MEDIUM + LOOKING + RECORD // 265
    );
    assert_eq!(
        locate(&tree, &mut ctx, medium + 64),
        AROUND_A_HINTED_WALK + LEVEL + LEVEL_PAST_SEVEN + FIRST // 133
    );

    // Adjacent keys: a block is 128 leaves and its anchor three levels up
    // (7 lines, 10 hits), the middle one of them entered by its `child0`.
    assert_eq!(
        locate(&tree, &mut ctx, dense),
        AROUND_A_WALK + FROM_ROOT_DENSE + LOOKING + RECORD // 278
    );
    assert_eq!(
        locate(&tree, &mut ctx, dense + 8),
        AROUND_A_HINTED_WALK + LEVEL + LEVEL_4_PROBES + LEVEL + FIRST // 164
    );

    // Past the last key: down the rightmost spine, where no level has a
    // separator above the key. The walk looks for an anchor and has none
    // to file.
    assert_eq!(
        locate(&tree, &mut ctx, u64::MAX - 1),
        AROUND_A_WALK + FROM_ROOT_SPINE + LOOKING // 311
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
    let first_way = AROUND_A_HINTED_WALK + LEVEL + LEVEL_PAST_SEVEN + FIRST; // 133
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
    let subtree_hit = AROUND_A_HINTED_WALK + LEVEL + LEVEL_PAST_SEVEN + FIRST; // 133
    let next = medium + 1024;

    // Every key here is the first of its leaf. A get that a walk answers
    // reads the leaf in the walk's section; one behind a leaf hit, in a
    // section of its own.
    assert_eq!(
        get(&tree, &mut ctx, medium),
        AROUND_A_WALK + FROM_ROOT_MEDIUM + LOOKING + RECORD + GET_IN_WALK // 290
    );
    assert_eq!(get(&tree, &mut ctx, medium + 64), subtree_hit + GET_IN_WALK); // 158
    assert_eq!(get(&tree, &mut ctx, medium + 64), LEAF_HIT + GET_TAIL); // 61

    assert_eq!(
        put(&tree, &mut ctx, next),
        AROUND_A_WALK + FROM_ROOT_MEDIUM_NEXT + LOOKING + RECORD + PUT_TAIL // 441
    );
    assert_eq!(put(&tree, &mut ctx, medium + 128), subtree_hit + PUT_TAIL); // 296
    assert_eq!(put(&tree, &mut ctx, medium + 128), LEAF_HIT + PUT_TAIL); // 180
}

#[test]
fn a_key_costs_one_segment_whichever_segment_holds_it() {
    let rt = Runtime::new_virtual();
    let (tree, [sparse, _, dense]) = build(&rt);
    let mut ctx = rt.thread(1);

    // Where keys are adjacent a leaf's eight keys are one leaf-hint block
    // and sit two to a segment: once the leaf is found, each of them is a
    // leaf hit and the same tail — the key in the fourth segment as the
    // key in the first.
    get(&tree, &mut ctx, dense);
    let mut homes = [0; 4];
    for key in dense..dense + 8 {
        homes[home_segment(key, 4)] += 1;
        assert_eq!(get(&tree, &mut ctx, key), LEAF_HIT + GET_TAIL, "get {key}"); // 61
        assert_eq!(put(&tree, &mut ctx, key), LEAF_HIT + PUT_TAIL, "put {key}");
        // 180
    }
    assert_eq!(homes, [2; 4]);

    // A key that is not there costs its home segment and no other: count
    // and two probes (both records are above the first key's successor,
    // which has another home than the first key), no value line.
    let absent = sparse + 1;
    get(&tree, &mut ctx, sparse);
    let start = ctx.clock;
    assert_eq!(tree.get(&mut ctx, absent), None);
    assert_eq!(ctx.clock - start, LEAF_HIT + GET_TAIL - FIRST); // 45
}

#[test]
fn a_spilled_key_costs_one_segment_more_per_full_segment_before_it() {
    let rt = Runtime::new_virtual();
    let tree = EunoBTreeDefault::new(Arc::clone(&rt));
    let mut ctx = rt.thread(1);
    // Ten keys of one home, ascending: four fill the home segment, four
    // the next one, the ninth is alone in the third. All in the root leaf.
    let keys: Vec<u64> = (0..)
        .filter(|&k| home_segment(k, 4) == 0)
        .take(10)
        .collect();
    for &key in &keys[..9] {
        tree.put(&mut ctx, key, key);
    }
    assert_eq!(tree.stats().leaves, 1);
    // Each key is its own leaf-hint block: the first visit files the leaf.
    let second = |ctx: &mut ThreadCtx, key: u64, put_it: bool| {
        get(&tree, ctx, key);
        match put_it {
            false => get(&tree, ctx, key),
            true => put(&tree, ctx, key),
        }
    };
    // The third of four: two probes, as for one of two.
    assert_eq!(second(&mut ctx, keys[2], false), LEAF_HIT + GET_TAIL);
    assert_eq!(second(&mut ctx, keys[2], true), LEAF_HIT + PUT_TAIL);
    assert_eq!(
        second(&mut ctx, keys[6], false),
        LEAF_HIT + GET_TAIL + GET_SPILL
    );
    assert_eq!(
        second(&mut ctx, keys[6], true),
        LEAF_HIT + PUT_TAIL + PUT_SPILL
    );
    // Alone in its segment: one probe.
    assert_eq!(
        second(&mut ctx, keys[8], false),
        LEAF_HIT + GET_TAIL + 2 * GET_SPILL - HIT
    );
    assert_eq!(
        second(&mut ctx, keys[8], true),
        LEAF_HIT + PUT_TAIL + 2 * PUT_SPILL - HIT
    );
    // A key of that home that is not there stops where that one is: the
    // first segment on the path with room. One probe there, no value line.
    assert_eq!(tree.get(&mut ctx, keys[9]), None);
    let start = ctx.clock;
    assert_eq!(tree.get(&mut ctx, keys[9]), None);
    assert_eq!(
        ctx.clock - start,
        LEAF_HIT + GET_TAIL + 2 * GET_SPILL - HIT - FIRST
    );
}

/// One leaf step of an undisturbed scan over a leaf of eight records, two
/// to a segment. A section to a segment (count and values on new lines,
/// keys on the count's): 2 lines, 3 hits; the last section goes on to
/// `next` (a hit: the last segment's key line, which that section has
/// just read), the successor's `seqno` (the copy beside its `next`: a new
/// line) and the leaf's own (the copy beside `next`: a hit); one ALU
/// operation a record delivered. 9 lines — eight of segments, the
/// successor's last key line — and 14 hits. The line that went is the
/// leaf's header, where `next` and `seqno` were a first touch (207).
const SCAN_SEGMENT: u64 = 2 * FIRST + 3 * HIT; // 41
const SCAN_STEP: u64 = 4 * SCAN_SEGMENT + FIRST + 2 * HIT + 8; // 194

#[test]
fn a_quiescent_scan_costs_its_rung_plus_a_fixed_step_per_leaf() {
    let rt = Runtime::new_virtual();
    let (tree, [_, medium, _]) = build(&rt);
    let mut ctx = rt.thread(1);
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
    let miss = AROUND_A_WALK + FROM_ROOT_MEDIUM + LOOKING + RECORD; // 265

    // Sixteen records are two leaves: the first is located, the second
    // comes with the first's closing section and costs no walk.
    assert_eq!(scan(&mut ctx, medium), miss + 2 * SCAN_STEP); // 653
    assert_eq!(scan(&mut ctx, medium), LEAF_HIT + 2 * SCAN_STEP); // 405

    // From mid-leaf (another slot of the leaf-hint table: the walk starts
    // at the subtree hint) the scan ends in a third leaf: of the records
    // below the cursor the keys are read and the values not, and none is
    // delivered (4 fewer hits, 4 fewer ALU operations — one record of
    // each segment, so every value line is still read; 698 while their
    // values were loaded), the third leaf is read whole for its first
    // four.
    let subtree_hit = AROUND_A_HINTED_WALK + 2 * LEVEL + FIRST; // 120
    assert_eq!(
        scan(&mut ctx, medium + 32),
        subtree_hit + 3 * SCAN_STEP - 4 * HIT - 4 // 686
    );
}
