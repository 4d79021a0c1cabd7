//! The upper stage end to end (DESIGN.md §4.4): the leaf `locate` hands
//! over is a hint that the lower region re-checks against the leaf's fence,
//! and the episode-free sections above the leaf are bounded.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

use euno_core::segment::home_segment;
use euno_core::{probe, DefaultLeaf, EunoBTreeDefault, EunoConfig, NodeRef, DEFAULT_SEGS};
use euno_htm::euno_metrics::Counter;
use euno_htm::{Backend, ConcurrentMap, Runtime, ThreadCtx};
use euno_rng::SmallRng;
use euno_sim::VirtualScheduler;

// ---------------------------------------------------------------------
// The hand-over: a structural change between `locate` and the lower region
// ---------------------------------------------------------------------

/// Preloaded keys are multiples of this, so every leaf has room for
/// filler keys between its records.
const STEP: u64 = 16;
const PRELOADED: u64 = 240;

#[derive(Clone, Copy, Debug)]
enum Between {
    Split,
    Reorg,
    /// Merge, retirement of the located leaf, and an attempt to get its
    /// address handed out again (the `aba_regression.rs` recipe).
    Merge,
}

#[derive(Clone, Copy, Debug, PartialEq)]
enum Op {
    Put,
    Get,
    Delete,
}

type Model = Rc<RefCell<BTreeMap<u64, u64>>>;

/// Address of the leaf `locate` hands over for `key`, and that leaf's
/// `seqno` (the copy a scan step carries), which every split,
/// reorganization and merge of it moves.
fn located(tree: &EunoBTreeDefault, ctx: &mut ThreadCtx, key: u64) -> (usize, u64) {
    ctx.pinned(|ctx, g| {
        let found = tree.locate(ctx, g, key);
        let seqno = found.leaf.seqno_carried().load_plain();
        (found.leaf as *const DefaultLeaf as usize, seqno)
    })
}

fn chained(tree: &EunoBTreeDefault, leaf: usize) -> bool {
    tree.leaf_seqnos_plain().iter().any(|&(at, _)| at == leaf)
}

/// Preloaded keys grouped by leaf, in chain order.
fn leaf_groups(tree: &EunoBTreeDefault, ctx: &mut ThreadCtx) -> Vec<Vec<u64>> {
    let mut groups: Vec<(usize, Vec<u64>)> = Vec::new();
    for key in (0..PRELOADED).map(|i| i * STEP) {
        let (at, _) = located(tree, ctx, key);
        match groups.last_mut() {
            Some((leaf, keys)) if *leaf == at => keys.push(key),
            _ => groups.push((at, vec![key])),
        }
    }
    groups.into_iter().map(|(_, keys)| keys).collect()
}

/// A preloaded tree and the leaf an operation will be interrupted on:
/// mid-chain and not its parent's first child, so its chain predecessor
/// is a sibling it can be merged into.
#[derive(Clone)]
struct Stage {
    rt: Arc<Runtime>,
    tree: Arc<EunoBTreeDefault>,
    model: Model,
    /// The preloaded keys of the target leaf and of its chain predecessor.
    group: Vec<u64>,
    sibling: Vec<u64>,
}

impl Stage {
    fn new(cfg: EunoConfig) -> (Stage, ThreadCtx) {
        Stage::on(Runtime::new_virtual(), cfg)
    }

    fn on(rt: Arc<Runtime>, cfg: EunoConfig) -> (Stage, ThreadCtx) {
        let tree = Arc::new(EunoBTreeDefault::with_config(
            Arc::clone(&rt),
            EunoConfig {
                rebalance_delete_threshold: 0,
                ..cfg
            },
        ));
        let model: Model = Rc::default();
        let mut ctx = rt.thread(1);
        for key in (0..PRELOADED).map(|i| i * STEP) {
            tree.put(&mut ctx, key, key + 1);
            model.borrow_mut().insert(key, key + 1);
        }
        let groups = leaf_groups(&tree, &mut ctx);
        let g = (groups.len() / 2..groups.len() - 1)
            .find(|&g| {
                ctx.pinned(|ctx, nodes| {
                    let leaf = tree.locate(ctx, nodes, groups[g][0]).leaf;
                    let parent = nodes.index_node(NodeRef(leaf.parent().load_plain()));
                    parent.child0.load_plain() != NodeRef::of_leaf(leaf).0
                })
            })
            .expect("a leaf that is not a first child");
        let (sibling, group) = (groups[g - 1].clone(), groups[g].clone());
        let stage = Stage {
            rt,
            tree,
            model,
            group,
            sibling,
        };
        (stage, ctx)
    }

    /// The highest preloaded key of the target leaf: a split moves it to
    /// the new sibling.
    fn top(&self) -> u64 {
        *self.group.last().unwrap()
    }

    /// Keys inside the target leaf's range that were not preloaded.
    fn fillers(&self) -> impl Iterator<Item = u64> {
        (self.group[0] + 1..self.top()).filter(|k| k % STEP != 0)
    }

    fn put(&self, ctx: &mut ThreadCtx, key: u64, value: u64) {
        let was = self.model.borrow_mut().insert(key, value);
        assert_eq!(self.tree.put(ctx, key, value), was);
    }

    fn delete(&self, ctx: &mut ThreadCtx, key: u64) {
        let was = self.model.borrow_mut().remove(&key);
        assert_eq!(self.tree.delete(ctx, key), was);
    }

    /// `between`, carried out by a fresh logical thread whose clock starts
    /// at `clock` on the leaf that holds `target` when it starts. Its own
    /// operations leave no probe marks: the marks a test counts are the
    /// interrupted operation's.
    fn interruption(
        &self,
        between: Between,
        target: u64,
        clock: u64,
        what: &str,
    ) -> impl FnOnce() + 'static {
        let (stage, what) = (self.clone(), what.to_owned());
        move || {
            let before = probe::take();
            let Stage {
                rt,
                tree,
                group,
                sibling,
                ..
            } = &stage;
            let mut other = rt.thread(2);
            other.clock = clock;
            let (leaf0, seqno0) = located(tree, &mut other, target);
            let mut fillers = stage.fillers();
            match between {
                Between::Split => {
                    // Fill the leaf from below its top key until it splits.
                    let leaves = tree.leaf_seqnos_plain().len();
                    while tree.leaf_seqnos_plain().len() == leaves {
                        let key = fillers.next().expect("leaf never split");
                        stage.put(&mut other, key, key + 1);
                    }
                }
                Between::Reorg => {
                    // Thin the leaf out, then churn distinct fillers: their
                    // tombstones fill the segments until an insert has to
                    // reorganize a leaf that is nowhere near full.
                    for &key in &group[..group.len() - 1] {
                        stage.delete(&mut other, key);
                    }
                    while located(tree, &mut other, target) == (leaf0, seqno0) {
                        let key = fillers.next().expect("leaf never reorganized");
                        stage.put(&mut other, key, key + 1);
                        stage.delete(&mut other, key);
                    }
                    assert_eq!(located(tree, &mut other, target).0, leaf0, "{what}");
                }
                Between::Merge => {
                    for keys in [sibling, group] {
                        for &key in &keys[..keys.len() - 1] {
                            stage.delete(&mut other, key);
                        }
                    }
                    // The sweep merges no protected leaf, and either may be
                    // protected: by the test, or by conflicts this thread,
                    // its clock behind the interrupted one's, met. Calm
                    // them, as a quiet window would. (The merged-away
                    // leaf's block is retired with it either way.)
                    for keys in [sibling, group] {
                        other.pinned(|other, g| {
                            let leaf = tree.locate(other, g, keys[0]).leaf;
                            if leaf.ccm(g).is_some() {
                                tree.calm_block_plain(leaf);
                            }
                        });
                    }
                    assert!(tree.maintain(&mut other) > 0, "{what}");
                    assert!(!chained(tree, leaf0), "{what}: the leaf was merged away");
                    // The interrupted operation's pin predates the unlink:
                    // however hard the collector and the allocator are
                    // pushed, the leaf is neither freed nor handed out again.
                    for _ in 0..8 {
                        rt.epoch().collect();
                    }
                    let mem = tree.memory();
                    assert!(
                        mem.retired_pending_bytes > 0 && mem.reclaimed_bytes == 0,
                        "{what}"
                    );
                    for key in (PRELOADED * STEP..).take(200) {
                        stage.put(&mut other, key, key + 1);
                    }
                    assert!(!chained(tree, leaf0), "{what}: a pinned leaf was reused");
                }
            }
            probe::take();
            before.into_iter().for_each(probe::mark);
        }
    }
}

/// `op` on a key at the top of a mid-chain leaf, with `between` landing
/// after the operation's upper stage and before its lower region. A split
/// or merge takes the key's range from the leaf: the lower region must
/// notice (`Lower::Inconsistent`), the operation must restart and answer
/// as if it had run after the change, and nothing may land in the leaf
/// the upper stage named. A reorganization moves records but not the
/// range: the operation must go on with the leaf it was handed, refuse
/// nothing, and answer as if it had run after the change.
///
/// A `default()` get reads its leaf before any of that, and learns there
/// that the leaf lost the key: it must go back to `locate` from the leaf
/// read — without a conflict-control stage or a region on that leaf first.
fn handover(cfg: EunoConfig, between: Between, op: Op) {
    let what = format!("read_opt={} {between:?} {op:?}", cfg.read_opt);
    let episode_free_get = cfg.read_opt && op == Op::Get;
    let (stage, mut ctx) = Stage::new(cfg);
    let (rt, tree, model) = (&stage.rt, &stage.tree, &stage.model);

    // The target key sits at the top of the leaf.
    let target = if op == Op::Put {
        stage.top() + 1
    } else {
        stage.top()
    };
    let (leaf0, _) = located(tree, &mut ctx, target);
    if episode_free_get {
        // Protected, a conflict-control stage on the leaf is two
        // read-modify-writes: the count below would show one.
        let leaf0 = NodeRef(leaf0 as u64 | 1);
        tree.pinned(|g| tree.protect_plain(g.leaf(leaf0)));
    }
    // The interrupter is a fresh thread whose clock starts at 0: keep the
    // interrupted one ahead of everything it will commit, so what this
    // operation retries is the hand-over and not a window overlap.
    ctx.clock += 1 << 32;
    let (attempts, rmws) = (ctx.metric(Counter::Attempts), ctx.stats.cas_ops);

    probe::take();
    probe::once_at("locate:done", stage.interruption(between, target, 0, &what));

    let got = match op {
        Op::Put => tree.put(&mut ctx, target, 7),
        Op::Get => tree.get(&mut ctx, target),
        Op::Delete => tree.delete(&mut ctx, target),
    };
    let want = match op {
        Op::Put => model.borrow_mut().insert(target, 7),
        Op::Get => model.borrow().get(&target).copied(),
        Op::Delete => model.borrow_mut().remove(&target),
    };
    assert_eq!(got, want, "{what}");
    let marks = probe::take();
    let count = |tag| marks.iter().filter(|&&m| m == tag).count();
    let refusals = usize::from(!matches!(between, Between::Reorg));
    if episode_free_get {
        assert_eq!(
            (count("leaf:moved"), count("lower:inconsistent")),
            (refusals, 0),
            "{what}: the leaf read must refuse a leaf that lost the key itself"
        );
        // From the interruption to the answer: no episode, and nothing
        // written outside one (the second pass is episode-free too).
        assert_eq!(
            (
                ctx.metric(Counter::Attempts) - attempts,
                ctx.stats.cas_ops - rmws
            ),
            (0, 0),
            "{what}: HTM attempts, read-modify-writes"
        );
    } else {
        assert_eq!(
            (count("lower:inconsistent"), count("leaf:moved")),
            (refusals, 0),
            "{what}: the lower region must refuse a leaf that lost the key"
        );
    }

    // With the pin gone the merged-away leaf is freed, and later splits
    // may be handed its address: the map must not care.
    for _ in 0..8 {
        rt.epoch().collect();
    }
    if let Between::Merge = between {
        assert!(tree.memory().reclaimed_bytes > 0, "{what}");
    }
    for key in (2 * PRELOADED * STEP..).take(200) {
        tree.put(&mut ctx, key, key + 1);
        model.borrow_mut().insert(key, key + 1);
    }
    assert_eq!(
        tree.get(&mut ctx, target),
        model.borrow().get(&target).copied(),
        "{what}"
    );
    assert_eq!(
        tree.collect_all_plain(),
        model
            .borrow()
            .iter()
            .map(|(&k, &v)| (k, v))
            .collect::<Vec<_>>(),
        "{what}"
    );
    assert_eq!(tree.audit_quiescent(), Vec::<String>::new(), "{what}");
}

fn handover_all(between: Between) {
    for cfg in [EunoConfig::paper(), EunoConfig::default()] {
        for op in [Op::Put, Op::Get, Op::Delete] {
            handover(cfg.clone(), between, op);
        }
    }
}

#[test]
#[cfg_attr(not(debug_assertions), ignore = "probes are debug-only")]
fn split_between_locate_and_lower_region_restarts_the_op() {
    handover_all(Between::Split);
}

#[test]
#[cfg_attr(not(debug_assertions), ignore = "probes are debug-only")]
fn reorganization_between_locate_and_lower_region_keeps_the_leaf() {
    handover_all(Between::Reorg);
}

#[test]
#[cfg_attr(not(debug_assertions), ignore = "probes are debug-only")]
fn merge_and_retirement_between_locate_and_lower_region_restarts_the_op() {
    handover_all(Between::Merge);
}

// ---------------------------------------------------------------------
// The replicas: a split moves every copy of the fence
// ---------------------------------------------------------------------

/// `op` on a key of the target leaf whose home segment is not segment 0,
/// with a split landing after the upper stage as in [`handover`], and
/// `mutation` switched on while the operation and the split run. The
/// interrupter finds its leaf by a key homed in segment 0. `Ok` iff the
/// operation refused the leaf, answered like the model and left the audit
/// clean; `Err` says which failed.
fn replicas(cfg: EunoConfig, op: Op, mutation: Option<&'static str>) -> Result<(), String> {
    let what = format!("read_opt={} {op:?}, mutation {mutation:?}", cfg.read_opt);
    let (stage, mut ctx) = Stage::new(cfg);
    let (tree, model) = (&stage.tree, &stage.model);
    let homed_away = |key: &u64| home_segment(*key, DEFAULT_SEGS) != 0;
    // The highest such key of the leaf (a split moves it right), or for a
    // put a new key above the top one.
    let target = match op {
        Op::Put => (stage.top() + 1..stage.top() + STEP).find(homed_away),
        _ => stage.group.iter().copied().rev().find(homed_away),
    }
    .unwrap_or_else(|| panic!("{what}: no key homed outside segment 0"));
    let by = *stage
        .group
        .iter()
        .find(|k| !homed_away(k))
        .expect("a key homed in 0");
    ctx.clock += 1 << 32;

    probe::take();
    probe::mutate(mutation);
    probe::once_at(
        "locate:done",
        stage.interruption(Between::Split, by, 0, &what),
    );
    let got = match op {
        Op::Put => tree.put(&mut ctx, target, 7),
        _ => tree.get(&mut ctx, target),
    };
    probe::mutate(None);
    let want = match op {
        Op::Put => model.borrow_mut().insert(target, 7),
        _ => model.borrow().get(&target).copied(),
    };
    let marks = probe::take();
    let refused = marks.contains(&"leaf:moved") || marks.contains(&"lower:inconsistent");
    let mut faults = tree.audit_quiescent();
    if got != want {
        faults.insert(0, format!("answered {got:?}, the model has {want:?}"));
    }
    match (refused, faults.first()) {
        (true, None) => Ok(()),
        (true, Some(fault)) => Err(format!("{what}: refused the leaf, yet {fault}")),
        (false, None) => Err(format!("{what}: kept the leaf, and nothing showed")),
        (false, Some(fault)) => Err(format!("{what}: kept the leaf: {fault}")),
    }
}

/// The twin of the hand-over tests above for the replicas: with every
/// fence copy written, an operation homed away from segment 0 refuses a
/// leaf a split took its key from, and answers right; with only copy 0
/// written, the copy it checks has not moved, it keeps the leaf, and a get
/// of a key the split moved right answers `None`, a put lands right of the
/// leaf's new fence, and the audit finds the copies apart.
#[test]
#[cfg_attr(not(debug_assertions), ignore = "probes are debug-only")]
fn a_writer_that_sets_one_fence_copy_is_convicted() {
    for cfg in [EunoConfig::paper(), EunoConfig::default()] {
        for op in [Op::Get, Op::Put] {
            assert_eq!(replicas(cfg.clone(), op, None), Ok(()));
            let verdict = replicas(cfg.clone(), op, Some("fence:write-one-copy"))
                .expect_err("sound with one copy written");
            assert!(verdict.contains("kept the leaf: "), "{verdict}");
        }
    }
}

// ---------------------------------------------------------------------
// The one-section get: a change between the walk's descent and the leaf read
// ---------------------------------------------------------------------

/// What lands inside a walk's section, between its descent and the get's
/// read of the leaf it found.
#[derive(Clone, Copy, Debug)]
enum Change {
    /// The key moves to a new right sibling.
    Split,
    /// Records move between the leaf's segments.
    Reorg,
    /// The leaf is merged into its left sibling and retired.
    MergeRetired,
    /// The leaf absorbs its right sibling.
    MergeSurvivor,
    /// The key's value changes, and nothing else.
    Overwrite,
}

/// A `default()` get answered by a walk — from the root, or `anchored` from
/// the subtree hint another key of the block filed — on a thread with no
/// leaf hint for the key, with `change` landing at the end of the walk's
/// descent (and
/// the key overwritten after it, so that an answer read before the change
/// is wrong as well). Sound: the get answers like the model, and the
/// section the change landed in does not answer — it runs again.
fn one_section_get(
    rt: Arc<Runtime>,
    change: Change,
    anchored: bool,
    mutation: Option<&'static str>,
) -> Result<(), String> {
    let what = format!(
        "{change:?} on {:?}, anchored {anchored}, mutation {mutation:?}",
        rt.backend()
    );
    let (stage, ctx) = Stage::on(rt, EunoConfig::default());
    let (rt, tree, model) = (&stage.rt, &stage.tree, &stage.model);
    let target = match change {
        Change::MergeSurvivor => stage.sibling[0],
        _ => stage.top(),
    };
    // A thread of its own, whose sections start after everything the
    // preload committed (the virtual window would refuse them otherwise).
    let mut getter = rt.thread(3);
    getter.clock = ctx.clock;
    if anchored {
        let other = (0..PRELOADED)
            .map(|i| i * STEP)
            .find(|&k| k >> 10 == target >> 10 && k >> 3 != target >> 3)
            .expect("another key of the block");
        assert_eq!(
            tree.get(&mut getter, other),
            model.borrow().get(&other).copied()
        );
    }
    let counts = |ctx: &ThreadCtx| {
        [
            Counter::LeafHintHits,
            Counter::SubtreeHintHits,
            Counter::SubtreeHintUnusable,
        ]
        .map(|c| ctx.metric(c))
    };
    let before = counts(&getter);

    // The interrupter's clock starts where the get's does: its commits
    // overlap the get's sections, as a real writer's would.
    let structural = match change {
        Change::Split => Some(Between::Split),
        Change::Reorg => Some(Between::Reorg),
        Change::MergeRetired => Some(Between::Merge),
        Change::MergeSurvivor | Change::Overwrite => None,
    }
    .map(|between| stage.interruption(between, target, getter.clock, &what));
    let interruption = {
        let (stage, clock) = (stage.clone(), getter.clock);
        move || {
            if let Some(structural) = structural {
                structural();
            }
            let mut other = stage.rt.thread(2);
            other.clock = clock;
            if let Change::MergeSurvivor = change {
                // Thin the right leaf only: the left one stays too full for
                // *its* left neighbour to absorb it first.
                for &key in &stage.group[..stage.group.len() - 1] {
                    stage.delete(&mut other, key);
                }
                assert_eq!(stage.tree.maintain(&mut other), 1, "one merge");
                assert_eq!(
                    located(&stage.tree, &mut other, stage.top()).0,
                    located(&stage.tree, &mut other, target).0,
                    "the left leaf absorbed the right one"
                );
            }
            stage.put(&mut other, target, 0xFEED);
        }
    };

    probe::take();
    probe::mutate(mutation);
    probe::once_at("walk:leaf", interruption);
    let retries = getter.stats.optimistic_retries;
    let got = tree.get(&mut getter, target);
    probe::mutate(None);
    let rerun = getter.stats.optimistic_retries > retries;
    let want = model.borrow().get(&target).copied();
    assert_eq!(want, Some(0xFEED), "{what}: the interruption never ran");
    let [leaf_hits, subtree_hits, unusable] = counts(&getter);
    assert_eq!(leaf_hits, before[0], "{what}: a leaf hint answered");
    // (On the virtual clock every try of the walk overlaps the interrupter's
    // commits, and the HTM region answers in the end: no hit is counted.)
    if anchored && rt.backend() == Backend::Stm {
        assert!(
            subtree_hits + unusable > before[1] + before[2],
            "{what}: no subtree hint"
        );
    }
    assert_eq!(
        tree.collect_all_plain(),
        model
            .borrow()
            .iter()
            .map(|(&k, &v)| (k, v))
            .collect::<Vec<_>>(),
        "{what}"
    );
    assert_eq!(tree.audit_quiescent(), Vec::<String>::new(), "{what}");
    if got != want {
        return Err(format!("{what}: answered {got:?}, the model has {want:?}"));
    }
    if !rerun {
        return Err(format!("{what}: the section the change landed in answered"));
    }
    Ok(())
}

const CHANGES: [Change; 5] = [
    Change::Split,
    Change::Reorg,
    Change::MergeRetired,
    Change::MergeSurvivor,
    Change::Overwrite,
];

#[test]
#[cfg_attr(not(debug_assertions), ignore = "probes are debug-only")]
fn a_change_inside_a_get_walks_section_reruns_the_section() {
    for rt in [Runtime::new_virtual, Runtime::new_concurrent] {
        for change in CHANGES {
            for anchored in [false, true] {
                assert_eq!(one_section_get(rt(), change, anchored, None), Ok(()));
            }
        }
    }
}

/// The mutation twin: a get that closes the walk's section before it reads
/// the leaf answers across every one of the changes — from a leaf the key
/// has left, or with nothing to tell it that the leaf it read is not the
/// one the walk validated.
#[test]
#[cfg_attr(not(debug_assertions), ignore = "probes are debug-only")]
fn a_get_that_reads_its_leaf_after_the_section_is_convicted() {
    for rt in [Runtime::new_virtual, Runtime::new_concurrent] {
        for change in CHANGES {
            for anchored in [false, true] {
                let verdict =
                    one_section_get(rt(), change, anchored, Some("get:leaf-read-after-section"));
                assert!(verdict.is_err(), "{change:?}, anchored {anchored}: sound");
            }
        }
    }
}

/// The same without probes, so in `--release` too: on STM threads a writer
/// splits, reorganizes and merges leaves and flips values while a reader's
/// gets — most of them answered inside a walk's section, the leaf-hint
/// table being too small for the keys read — must return a key's one value,
/// or one of its two.
#[test]
fn gets_answered_inside_a_walk_are_exact_under_structural_churn() {
    const SPAN: u64 = 64;
    const KEYS: u64 = 2_000;
    const GETS: u64 = 40_000;
    let rt = Runtime::new_concurrent();
    let tree = Arc::new(EunoBTreeDefault::with_config(
        Arc::clone(&rt),
        EunoConfig {
            rebalance_delete_threshold: 0,
            ..EunoConfig::default()
        },
    ));
    // Multiples of `SPAN` never change; odd multiples of half of it flip
    // between two values; the writer's keys are everything else.
    let flips = |key: u64| [2 * key, 2 * key + 1];
    {
        let mut ctx = rt.thread(0);
        for key in (0..KEYS).map(|i| i * SPAN / 2) {
            tree.put(&mut ctx, key, flips(key)[0]);
        }
    }
    let stop = Arc::new(AtomicBool::new(false));
    let rounds = Arc::new(AtomicU64::new(0));
    let writer = {
        let (tree, rt) = (Arc::clone(&tree), Arc::clone(&rt));
        let (stop, rounds) = (Arc::clone(&stop), Arc::clone(&rounds));
        std::thread::spawn(move || {
            let mut ctx = rt.thread(1);
            let mut rng = SmallRng::seed_from_u64(0x0E5E);
            while !stop.load(Ordering::Relaxed) {
                // Fill a run of gaps (splits), then empty it (tombstones, which
                // later inserts reorganize away) and merge what that thinned.
                let base = rng.gen_range(0..KEYS / 2) * SPAN;
                let gap = (base + 1..base + 4 * SPAN).filter(|k| k % (SPAN / 2) != 0);
                for key in gap.clone() {
                    tree.put(&mut ctx, key, key);
                }
                for key in gap {
                    tree.delete(&mut ctx, key);
                }
                tree.maintain(&mut ctx);
                let flip = rng.gen_range(0..KEYS / 2) * SPAN + SPAN / 2;
                tree.put(&mut ctx, flip, flips(flip)[rng.gen_range(0..2usize)]);
                rounds.fetch_add(1, Ordering::Relaxed);
            }
        })
    };
    while rounds.load(Ordering::Relaxed) == 0 {
        std::thread::yield_now();
    }
    // At least `GETS` gets, and for as long as the writer takes to make
    // four rounds.
    let first = rounds.load(Ordering::Relaxed);
    let deadline = std::time::Instant::now() + Duration::from_secs(60);
    let mut ctx = rt.thread(2);
    let mut rng = SmallRng::seed_from_u64(0x6E75);
    let mut gets = 0;
    while gets < GETS || rounds.load(Ordering::Relaxed) < first + 4 {
        assert!(std::time::Instant::now() < deadline, "the writer stalled");
        let key = rng.gen_range(0..KEYS) * SPAN / 2;
        let got = tree.get(&mut ctx, key);
        if key.is_multiple_of(SPAN) {
            assert_eq!(got, Some(flips(key)[0]), "stable key {key}");
        } else {
            assert!(
                got.is_some_and(|v| flips(key).contains(&v)),
                "flip key {key}: {got:?}"
            );
        }
        gets += 1;
    }
    stop.store(true, Ordering::Relaxed);
    writer.join().unwrap();
    let walked = gets - ctx.metric(Counter::LeafHintHits);
    assert!(2 * walked > gets, "{walked} of {gets} gets walked");
    assert_eq!(tree.audit_quiescent(), Vec::<String>::new());
}

// ---------------------------------------------------------------------
// The hand-over between the sections of a scan's leaf step
// ---------------------------------------------------------------------

/// What lands between two sections of a leaf step (DESIGN.md §4.7).
#[derive(Clone, Copy, Debug)]
enum Landing {
    /// A new key goes into a segment the step has already read.
    InsertBehind,
    /// Two keys deleted before the scan — one in a segment already read,
    /// one in a segment still to come — are put again.
    Revive,
    Structural(Between),
}

/// The segment of `leaf` that holds `key` (live or tombstoned).
/// The segment of the leaf at `leaf` (an address `located` returned)
/// that holds `key`, if any does.
fn segment_of(tree: &EunoBTreeDefault, leaf: usize, key: u64) -> Option<usize> {
    tree.pinned(|g| {
        let segs = &g.leaf(NodeRef(leaf as u64 | 1)).segs;
        segs.iter()
            .position(|seg| (0..seg.count_plain()).any(|i| seg.key_cell(i).load_plain() == key))
    })
}

/// Run `landing` the `skip + 1`-th time this thread passes `tag`.
fn at_pass(tag: &'static str, skip: usize, landing: Box<dyn FnOnce()>) {
    if skip == 0 {
        probe::once_at(tag, landing);
    } else {
        probe::once_at(tag, move || at_pass(tag, skip - 1, landing));
    }
}

/// What a scan that overlapped one interruption may deliver: keys strictly
/// ascending from `from`, each with a value it had before or after; every
/// key the interruption left alone, once.
fn overlapped_scan_is_sound(
    out: &[(u64, u64)],
    from: u64,
    before: &BTreeMap<u64, u64>,
    after: &BTreeMap<u64, u64>,
) -> Result<(), String> {
    if let Some(w) = out.windows(2).find(|w| w[0].0 >= w[1].0) {
        return Err(format!("{:?} before {:?}", w[0], w[1]));
    }
    if let Some(forged) = out
        .iter()
        .find(|(k, v)| *k < from || (before.get(k) != Some(v) && after.get(k) != Some(v)))
    {
        return Err(format!("{forged:?} was never in the map"));
    }
    let delivered: BTreeMap<u64, u64> = out.iter().copied().collect();
    match before
        .range(from..)
        .find(|&(k, v)| after.get(k) == Some(v) && !delivered.contains_key(k))
    {
        Some(dropped) => Err(format!("{dropped:?} was there throughout and is missing")),
        None => Ok(()),
    }
}

/// A scan to the end of the tree whose first step reads the target leaf,
/// with `landing` between that step's sections `read - 1` and `read` (the
/// segments below `read` are read, the rest are not). Facts 1 and 2 of
/// `scan.rs::leaf_step`: while `seqno` stands no key changes segment, so
/// the step finishes on what it has; once it has moved the closing
/// section says so, and the step starts over on the cursor's leaf.
fn scan_with_landing(landing: Landing, read: usize, mutation: Option<&'static str>) {
    let what = format!("{landing:?} after {read} sections, mutation {mutation:?}");
    let (stage, mut ctx) = Stage::new(EunoConfig::default());
    let (tree, model) = (&stage.tree, &stage.model);
    let from = stage.group[0];
    let (leaf0, seqno0) = located(tree, &mut ctx, from);
    let in_segment = |wanted: &dyn Fn(usize) -> bool| {
        let found = stage
            .group
            .iter()
            .find(|&&k| wanted(segment_of(tree, leaf0, k).unwrap()));
        *found.unwrap_or_else(|| panic!("{what}: no preloaded key in such a segment"))
    };
    let (behind, ahead) = (in_segment(&|s| s < read), in_segment(&|s| s >= read));
    if let Landing::Revive = landing {
        stage.delete(&mut ctx, behind);
        stage.delete(&mut ctx, ahead);
    }
    if let Landing::Structural(Between::Reorg) = landing {
        // A reorganization moves a key one way only: back up its probe
        // path. Fill the last segment the step will have read with keys
        // it is home to (from the top of the leaf's range: the
        // interruption churns fillers from the bottom) until one spills
        // into the next — from where the reorganization, which drops the
        // preloaded keys' tombstones, takes it home.
        let home = read - 1;
        let fillers: Vec<u64> = stage.fillers().collect();
        let spilled = fillers
            .into_iter()
            .rev()
            .filter(|&key| home_segment(key, DEFAULT_SEGS) == home)
            .find(|&key| {
                stage.put(&mut ctx, key, key + 1);
                segment_of(tree, leaf0, key) != Some(home)
            });
        let spilled = spilled.unwrap_or_else(|| panic!("{what}: nothing spilled"));
        assert_eq!(segment_of(tree, leaf0, spilled), Some(read), "{what}");
        assert_eq!(located(tree, &mut ctx, from), (leaf0, seqno0), "{what}");
    }
    let before = model.borrow().clone();
    ctx.clock += 1 << 32;

    probe::take();
    probe::mutate(mutation);
    let interruption: Box<dyn FnOnce()> = match landing {
        Landing::Structural(between) => Box::new(stage.interruption(between, from, 0, &what)),
        Landing::InsertBehind => Box::new({
            let (stage, what) = (stage.clone(), what.clone());
            move || {
                let mut other = stage.rt.thread(2);
                let landed_behind = stage.fillers().take(6).any(|key| {
                    stage.put(&mut other, key, key + 1);
                    segment_of(&stage.tree, leaf0, key).is_some_and(|s| s < read)
                });
                assert!(landed_behind, "{what}: no insert landed in a read segment");
            }
        }),
        Landing::Revive => Box::new({
            let stage = stage.clone();
            move || {
                let mut other = stage.rt.thread(2);
                stage.put(&mut other, behind, 7);
                stage.put(&mut other, ahead, 7);
            }
        }),
    };
    at_pass("scan:section", read - 1, interruption);
    let mut out = Vec::new();
    tree.scan(&mut ctx, from, usize::MAX, &mut out);
    probe::mutate(None);
    // A step found its leaf's `seqno` moved and went back to `locate`.
    let relocated = probe::take().contains(&"scan:moved");

    let after = model.borrow().clone();
    assert_ne!(before, after, "{what}: the interruption never ran");
    let verdict = overlapped_scan_is_sound(&out, from, &before, &after);
    if mutation.is_some() {
        assert!(verdict.is_err(), "{what}: delivered a sound scan");
        return;
    }
    assert_eq!(verdict, Ok(()), "{what}");
    match landing {
        Landing::Structural(_) => {
            // Everything the step had read went with the leaf's `seqno`.
            assert!(relocated, "{what}: the step went on with a moved leaf");
            let exact: Vec<_> = after.range(from..).map(|(&k, &v)| (k, v)).collect();
            assert_eq!(out, exact, "{what}");
        }
        Landing::InsertBehind | Landing::Revive => {
            assert_eq!(located(tree, &mut ctx, from), (leaf0, seqno0), "{what}");
            assert!(!relocated, "{what}: a standing leaf was read twice");
            if let Landing::Revive = landing {
                // Each came back where its tombstone was, not elsewhere.
                let got = |key| out.iter().find(|&&(k, _)| k == key).map(|&(_, v)| v);
                assert_eq!((got(behind), got(ahead)), (None, Some(7)), "{what}");
            }
        }
    }
    assert_eq!(tree.audit_quiescent(), Vec::<String>::new(), "{what}");
}

#[test]
#[cfg_attr(not(debug_assertions), ignore = "probes are debug-only")]
fn writes_between_a_scans_sections_leave_each_key_in_its_segment() {
    for read in 1..4 {
        scan_with_landing(Landing::InsertBehind, read, None);
        scan_with_landing(Landing::Revive, read, None);
    }
}

#[test]
#[cfg_attr(not(debug_assertions), ignore = "probes are debug-only")]
fn a_structural_change_between_a_scans_sections_restarts_the_step() {
    for read in 1..4 {
        for between in [Between::Reorg, Between::Split, Between::Merge] {
            scan_with_landing(Landing::Structural(between), read, None);
        }
    }
}

/// The mutation twin: without the closing `seqno` check the step goes on
/// reading a reorganized leaf, and the key that hopped from a segment
/// still to come into one already read is lost.
#[test]
#[cfg_attr(not(debug_assertions), ignore = "probes are debug-only")]
fn a_scans_sections_lose_a_key_without_the_closing_seqno_check() {
    for read in 1..4 {
        scan_with_landing(
            Landing::Structural(Between::Reorg),
            read,
            Some("scan:skip-closing-seqno"),
        );
    }
}

/// The one-copy rule for `seqno`, which only scans read: a reorganization
/// that bumps the carried copy alone leaves the closing copy where the
/// step's carried read left it, the step trusts what it read, and the key
/// that hopped into a segment already read is lost.
#[test]
#[cfg_attr(not(debug_assertions), ignore = "probes are debug-only")]
fn a_writer_that_bumps_one_seqno_copy_is_convicted() {
    for read in 1..4 {
        scan_with_landing(
            Landing::Structural(Between::Reorg),
            read,
            Some("seqno:bump-one-copy"),
        );
    }
}

// ---------------------------------------------------------------------
// Placement: one segment per leaf search
// ---------------------------------------------------------------------

/// A tree whose leaves have been through every way a record is placed —
/// inserts along a probe path past full segments, splits, a merge sweep,
/// reorganizations — compared with a model key by key and audited:
/// `(gets that answered wrongly, audit findings)`. The mutations are those
/// of `leaf_ops.rs`, switched on while the tree is built or only while it
/// is read.
fn placement_verdict(
    cfg: EunoConfig,
    building: Option<&'static str>,
    reading: Option<&'static str>,
) -> (usize, usize) {
    let rt = Runtime::new_virtual();
    let tree = EunoBTreeDefault::with_config(Arc::clone(&rt), cfg);
    let mut ctx = rt.thread(1);
    let mut model = BTreeMap::new();
    probe::mutate(building);
    // Keys of one home, far from the rest: the fourth spills, the seventh
    // spills twice. Then adjacent keys, enough of them to split.
    let one_home = (1u64 << 20..).filter(|&k| home_segment(k, DEFAULT_SEGS) == 2);
    for key in one_home.take(11).chain(0..300) {
        tree.put(&mut ctx, key, key + 1);
        model.insert(key, key + 1);
    }
    // Tombstones and a sweep that merges what they emptied; then keys that
    // come and go for good, whose tombstones fill the merged leaves until
    // a put of a key that stays has to reorganize one.
    for key in (0..300).filter(|k| k % 3 != 0) {
        tree.delete(&mut ctx, key);
        model.remove(&key);
    }
    tree.maintain(&mut ctx);
    for key in (0..300).filter(|k| k % 3 != 0) {
        tree.put(&mut ctx, key, key + 2);
        if key % 3 == 1 {
            tree.delete(&mut ctx, key);
        } else {
            model.insert(key, key + 2);
        }
    }
    probe::mutate(reading);
    let wrong = model
        .iter()
        .filter(|&(&key, &value)| tree.get(&mut ctx, key) != Some(value))
        .count();
    let findings = tree.audit_quiescent().len();
    probe::mutate(None);
    (wrong, findings)
}

#[test]
fn every_record_is_where_its_search_ends() {
    for cfg in [EunoConfig::paper(), EunoConfig::default()] {
        probe::take();
        assert_eq!(placement_verdict(cfg, None, None), (0, 0));
        // (Probe marks exist in debug builds only.)
        let marks = probe::take();
        for tag in ["split:records", "merge:records", "reorg:records"] {
            assert!(marks.contains(&tag) || !cfg!(debug_assertions), "no {tag}");
        }
    }
}

/// The mutation twins. A search that stops at the home segment whatever
/// its count loses every key that spilled; the round-robin deal this
/// placement replaced, under the new search, loses every key it dealt
/// anywhere but home. Each must fail the model comparison *and* the audit,
/// in the tree with episodes and in the one without.
#[test]
#[cfg_attr(not(debug_assertions), ignore = "probes are debug-only")]
fn a_search_that_never_follows_a_spill_and_a_deal_that_ignores_homes_are_convicted() {
    for cfg in [EunoConfig::paper(), EunoConfig::default()] {
        let (wrong, findings) = placement_verdict(cfg.clone(), None, Some("leaf:stop-at-home"));
        assert!(
            wrong > 0 && findings > 0,
            "stop at home: {wrong}, {findings}"
        );
        let (wrong, findings) = placement_verdict(cfg, Some("place:deal-round-robin"), None);
        assert!(
            wrong > 0 && findings > 0,
            "round-robin: {wrong}, {findings}"
        );
    }
}

// ---------------------------------------------------------------------
// Bounded gets
// ---------------------------------------------------------------------

/// In concurrent mode an episode-free section validates against the
/// *global* TL2 clock, so writers that never touch the reader's leaf can
/// fail it for as long as they keep committing: a get that only retried
/// would have no bound. The getter runs on a helper thread so a starved
/// get fails the test instead of hanging it.
#[test]
fn get_is_bounded_under_foreign_writers() {
    const WRITERS: u64 = 3;
    const GETS: u64 = 20_000;
    let rt = Runtime::new_concurrent();
    let tree = Arc::new(EunoBTreeDefault::new(Arc::clone(&rt)));
    {
        let mut ctx = rt.thread(0);
        for key in 0..4_000u64 {
            tree.put(&mut ctx, key, key + 1);
        }
    }
    let stop = Arc::new(AtomicBool::new(false));
    let writers: Vec<_> = (0..WRITERS)
        .map(|w| {
            let (tree, rt, stop) = (Arc::clone(&tree), Arc::clone(&rt), Arc::clone(&stop));
            std::thread::spawn(move || {
                let mut ctx = rt.thread(10 + w);
                let mut i = 0u64;
                // Updates only, on keys the getter never asks for.
                while !stop.load(Ordering::Relaxed) {
                    let key = 2_000 + (i * WRITERS + w) % 2_000;
                    tree.put(&mut ctx, key, key + 1);
                    i += 1;
                }
            })
        })
        .collect();
    let (tx, rx) = mpsc::channel();
    {
        let (tree, rt) = (Arc::clone(&tree), Arc::clone(&rt));
        std::thread::spawn(move || {
            let mut ctx = rt.thread(1);
            for i in 0..GETS {
                let key = (i * 31) % 2_000;
                assert_eq!(tree.get(&mut ctx, key), Some(key + 1));
            }
            let _ = tx.send(());
        });
    }
    let done = rx.recv_timeout(Duration::from_secs(60));
    stop.store(true, Ordering::Relaxed);
    for w in writers {
        w.join().unwrap();
    }
    done.expect("gets starved by writers on other keys");
}

const HOT_WRITERS: u64 = 15;
const HOT_GETS: u64 = 4_000;
/// The 16 keys everyone fights over fit in one leaf; the even ones are
/// preloaded and only ever updated, the odd ones come and go.
const HOT: std::ops::Range<u64> = 1_000..1_016;
/// No get may cost more. The longest ones spent their leaf-read budget
/// on the hot leaf and then queued on their key's CCM lock bit (measured:
/// 13 k cycles).
const MAX_GET_CYCLES: u64 = 20_000;
/// No get may fail more episode-free sections than the two private
/// budgets in `traverse.rs` allow (4 walks + 8 leaf reads; measured: 8).
/// What a budget-less get does here is up to the schedule: 23 with the
/// unbounded retry loop this replaced.
const MAX_GET_RETRIES: u64 = 12;

/// Fifteen logical writers hammer one leaf while one getter reads it. The
/// scheduler runs one op at a time, so a `BTreeMap` is an exact model of
/// every get; the interesting part is the virtual clock, on which the
/// getter's sections overlap the writers' commits.
#[test]
fn get_from_a_write_hot_leaf_is_exact_and_bounded() {
    let rt = Runtime::new_virtual();
    let tree = EunoBTreeDefault::new(Arc::clone(&rt));
    let model = RefCell::new(BTreeMap::new());
    {
        let mut ctx = rt.thread(0x10ad);
        for key in (0..2_000u64).step_by(2) {
            tree.put(&mut ctx, key, key);
            model.borrow_mut().insert(key, key);
        }
        rt.virt_prune(ctx.clock);
        rt.reset_dynamics();
    }
    let gets_done = Cell::new(0u64);
    let (longest_get, most_retries) = (Cell::new(0u64), Cell::new(0u64));

    let mut sched = VirtualScheduler::new(Arc::clone(&rt));
    for t in 0..HOT_WRITERS {
        let (tree, model, gets_done) = (&tree, &model, &gets_done);
        let mut rng = SmallRng::seed_from_u64(0x6E7_B0B ^ t);
        let mut seq = 0u64;
        sched.add_thread(
            t,
            Box::new(move |ctx| {
                let key = rng.gen_range(HOT);
                seq += 1;
                let model = &mut *model.borrow_mut();
                if key.is_multiple_of(2) || rng.gen_range(0..2u32) == 0 {
                    let value = t << 32 | seq;
                    assert_eq!(tree.put(ctx, key, value), model.insert(key, value));
                } else {
                    assert_eq!(tree.delete(ctx, key), model.remove(&key));
                }
                ctx.metric_add(Counter::Ops, 1);
                gets_done.get() < HOT_GETS
            }),
        );
    }
    {
        let (tree, model, gets_done) = (&tree, &model, &gets_done);
        let (longest_get, most_retries) = (&longest_get, &most_retries);
        sched.add_thread(
            HOT_WRITERS,
            Box::new(move |ctx| {
                let key = HOT.start + gets_done.get() % (HOT.end - HOT.start);
                let (start, retries) = (ctx.clock, ctx.stats.optimistic_retries);
                let got = tree.get(ctx, key);
                longest_get.set(longest_get.get().max(ctx.clock - start));
                most_retries.set(
                    most_retries
                        .get()
                        .max(ctx.stats.optimistic_retries - retries),
                );
                assert_eq!(got, model.borrow().get(&key).copied(), "get {key}");
                ctx.metric_add(Counter::Ops, 1);
                gets_done.set(gets_done.get() + 1);
                gets_done.get() < HOT_GETS
            }),
        );
    }
    sched.run();

    assert!(
        longest_get.get() <= MAX_GET_CYCLES,
        "longest get took {} cycles (bound {MAX_GET_CYCLES})",
        longest_get.get()
    );
    assert!(
        most_retries.get() <= MAX_GET_RETRIES,
        "a get failed {} episode-free sections (bound {MAX_GET_RETRIES})",
        most_retries.get()
    );
    assert_eq!(
        tree.collect_all_plain(),
        model.into_inner().into_iter().collect::<Vec<_>>()
    );
    assert_eq!(tree.audit_quiescent(), Vec::<String>::new());
}
