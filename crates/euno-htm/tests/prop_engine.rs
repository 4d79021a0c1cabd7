//! Randomized property tests for the engine's core data structures and
//! the transactional executor. Cases are generated from seeded `euno-rng`
//! streams so every run explores the same (large) sample deterministically.

use euno_rng::{Rng, SmallRng};

use euno_htm::{LineClass, LineId, LineSet, RetryPolicy, Runtime, TxCell};

/// LineSet behaves exactly like a BTreeSet of line ids.
#[test]
fn lineset_matches_btreeset() {
    let mut rng = SmallRng::seed_from_u64(0x11e5e7);
    for _ in 0..64 {
        let n = rng.gen_range(0usize..200);
        let mut set = LineSet::new();
        let mut model = std::collections::BTreeSet::new();
        for _ in 0..n {
            let x = rng.gen_range(0u64..64);
            assert_eq!(set.insert(LineId(x)), model.insert(x));
        }
        assert_eq!(set.len(), model.len());
        let got: Vec<u64> = set.iter().map(|l| l.0).collect();
        let expect: Vec<u64> = model.iter().copied().collect();
        assert_eq!(got, expect, "iteration order is sorted");
        for x in 0..64u64 {
            assert_eq!(set.contains(LineId(x)), model.contains(&x));
        }
    }
}

/// Intersection is symmetric and agrees with the model.
#[test]
fn lineset_intersection_symmetric() {
    let mut rng = SmallRng::seed_from_u64(0x1256c7);
    for _ in 0..128 {
        let draw = |rng: &mut SmallRng| {
            let n = rng.gen_range(0usize..32);
            (0..n)
                .map(|_| rng.gen_range(0u64..48))
                .collect::<std::collections::BTreeSet<u64>>()
        };
        let a = draw(&mut rng);
        let b = draw(&mut rng);
        let sa: LineSet = a.iter().map(|&x| LineId(x)).collect();
        let sb: LineSet = b.iter().map(|&x| LineId(x)).collect();
        let expect = a.intersection(&b).next().is_some();
        assert_eq!(sa.intersects(&sb), expect);
        assert_eq!(sb.intersects(&sa), expect);
        if let Some(l) = sa.first_intersection(&sb) {
            assert!(a.contains(&l.0) && b.contains(&l.0));
        }
    }
}

/// The small/spill representation agrees with the BTreeSet model on
/// insert/contains/intersects for footprints straddling the inline
/// boundary, including across clear-and-reuse cycles (the episode scratch
/// pool clears sets instead of dropping them, so a spilled-then-cleared
/// set must behave exactly like a fresh one).
#[test]
fn lineset_spill_boundary_matches_model() {
    let mut rng = SmallRng::seed_from_u64(0x5b111);
    let mut set = LineSet::new(); // reused across cases, like the scratch pool
    for case in 0..256 {
        // Sizes clustered around the inline capacity (16): 0..40 inserts
        // from a key space wide enough to avoid constant duplicates.
        let n = rng.gen_range(0usize..40);
        set.clear();
        let mut model = std::collections::BTreeSet::new();
        for _ in 0..n {
            let x = rng.gen_range(0u64..96);
            assert_eq!(set.insert(LineId(x)), model.insert(x), "case {case}");
            assert_eq!(set.len(), model.len());
        }
        let got: Vec<u64> = set.iter().map(|l| l.0).collect();
        let expect: Vec<u64> = model.iter().copied().collect();
        assert_eq!(got, expect, "case {case}: sorted iteration");
        for x in 0..96u64 {
            assert_eq!(set.contains(LineId(x)), model.contains(&x), "case {case}");
        }
        // Intersection against an independently drawn set (sized to land
        // on either side of the boundary).
        let m = rng.gen_range(0usize..40);
        let other_model: std::collections::BTreeSet<u64> =
            (0..m).map(|_| rng.gen_range(0u64..96)).collect();
        let other: LineSet = other_model.iter().map(|&x| LineId(x)).collect();
        let expect_first = model.intersection(&other_model).next().copied();
        assert_eq!(
            set.first_intersection(&other).map(|l| l.0),
            expect_first,
            "case {case}: first intersection is the smallest common line"
        );
        assert_eq!(set.intersects(&other), other.intersects(&set));
    }
}

/// A transactional read-modify-write sequence over arbitrary cells is
/// equivalent to executing it directly: no lost or phantom updates,
/// regardless of how the adds are interleaved across virtual threads.
#[test]
fn virtual_transactions_apply_exactly_once() {
    let mut rng = SmallRng::seed_from_u64(0xa9911e);
    for case in 0..32 {
        let threads = rng.gen_range(1usize..6);
        let n_adds = rng.gen_range(1usize..60);
        let adds: Vec<(usize, u64)> = (0..n_adds)
            .map(|_| (rng.gen_range(0usize..8), rng.gen_range(1u64..100)))
            .collect();
        let rt = Runtime::new_virtual();
        let fb = TxCell::new(0u64);
        let cells: Vec<TxCell<u64>> = (0..8).map(|_| TxCell::new(0)).collect();
        let mut ctxs: Vec<_> = (0..threads).map(|i| rt.thread(i as u64)).collect();
        let mut expect = [0u64; 8];
        for (idx, n) in &adds {
            expect[*idx] += n;
            // Schedule by min virtual clock, like the simulator.
            let t = (0..threads).min_by_key(|&t| (ctxs[t].clock, t)).unwrap();
            ctxs[t].htm_execute(&fb, &RetryPolicy::default(), |tx| {
                let v = tx.read(&cells[*idx])?;
                tx.write(&cells[*idx], v + n)
            });
        }
        for (cell, want) in cells.iter().zip(expect) {
            assert_eq!(cell.load_plain(), want, "case {case}");
        }
    }
}

/// Concurrent-mode transactions preserve a global invariant (sum of two
/// cells constant) under arbitrary transfer schedules.
#[test]
fn concurrent_transfers_preserve_sum() {
    let mut rng = SmallRng::seed_from_u64(0x5c41e);
    for _ in 0..8 {
        let n = rng.gen_range(1usize..40);
        let transfers: Vec<u64> = (0..n).map(|_| rng.gen_range(1u64..10)).collect();
        let rt = Runtime::new_concurrent();
        let fb = TxCell::new(0u64);
        let a = Box::new(TxCell::new(1_000u64));
        let b = Box::new(TxCell::new(1_000u64));
        std::thread::scope(|s| {
            let chunks: Vec<Vec<u64>> = transfers.chunks(10).map(|c| c.to_vec()).collect();
            for (i, chunk) in chunks.into_iter().enumerate() {
                let (a, b, fb, rt) = (&a, &b, &fb, &rt);
                let mut ctx = rt.thread(i as u64);
                s.spawn(move || {
                    for amt in chunk {
                        ctx.htm_execute(fb, &RetryPolicy::default(), |tx| {
                            let va = tx.read(a)?;
                            let vb = tx.read(b)?;
                            let amt = amt.min(va);
                            tx.write(a, va - amt)?;
                            tx.write(b, vb + amt)
                        });
                    }
                });
            }
        });
        assert_eq!(a.load_plain() + b.load_plain(), 2_000);
    }
}

/// One `Runtime::register_node` call, as the naive node-table model keeps
/// it: a `Vec` in registration order, every question a linear scan.
#[derive(Clone)]
struct ModelNode {
    base: usize,
    len: usize,
    parts: Vec<(usize, LineClass)>,
    attributed: bool,
}

impl ModelNode {
    fn lines(&self) -> std::ops::Range<u64> {
        LineId::of_addr(self.base).0..LineId::of_addr(self.base + self.len - 1).0 + 1
    }

    /// The last part starting at or before `line` owns it.
    fn class_of(&self, line: u64) -> LineClass {
        let mut class = self.parts[0].1;
        for &(off, c) in &self.parts {
            if LineId::of_addr(self.base + off).0 <= line {
                class = c;
            }
        }
        class
    }
}

/// Register `n` in both the runtime and the model (a registration evicts
/// every node it shares a line with), then compare them on every line and
/// boundary address of the universe.
fn register_and_compare(rt: &Runtime, model: &mut Vec<ModelNode>, n: ModelNode, ctx: &str) {
    const UNIVERSE_LINES: u64 = 160;
    rt.register_node(n.base, n.len, &n.parts, n.attributed);
    let span = n.lines();
    model.retain(|m| m.lines().end <= span.start || span.end <= m.lines().start);
    model.push(n);

    let node_of = |line: u64| model.iter().position(|m| m.lines().contains(&line));
    for line in 0..UNIVERSE_LINES {
        let node = node_of(line).map(|i| &model[i]);
        let class = node.map_or(LineClass::Unknown, |m| m.class_of(line));
        assert_eq!(
            rt.class_of(LineId(line)),
            class,
            "{ctx}: class of line {line}"
        );
        // Every byte of the line that can sit on a node boundary.
        for addr in (line * 64..(line + 1) * 64).step_by(8) {
            let inside = |m: &&ModelNode| (m.base..m.base + m.len).contains(&(addr as usize));
            let base = node.filter(|m| m.attributed).filter(inside);
            let base = base.map(|m| m.base as u64);
            assert_eq!(rt.object_base_of(addr), base, "{ctx}: object of {addr:#x}");
        }
    }
    // Ranks order registered lines by (registration order, address) and
    // put every unregistered line after them, in address order.
    let mut by_rank: Vec<u64> = (0..UNIVERSE_LINES).collect();
    by_rank.sort_by_key(|&l| rt.rank_of(LineId(l)));
    let mut expect: Vec<u64> = (0..UNIVERSE_LINES).collect();
    expect.sort_by_key(|&l| (node_of(l).unwrap_or(usize::MAX), l));
    assert_eq!(by_rank, expect, "{ctx}: rank order");
}

/// The node table agrees with the naive model on `class_of`,
/// `object_base_of` and the ordering of `rank_of` under registration,
/// re-registration of the same base and reuse of an address with a
/// different size.
#[test]
fn node_table_matches_naive_model() {
    use LineClass::{Metadata, Record, Structure};
    let node = |base, len, parts: &[(usize, LineClass)], attributed| ModelNode {
        base,
        len,
        parts: parts.to_vec(),
        attributed,
    };
    // Scripted openers: exact overwrite with a new class, neighbours
    // meeting at a line boundary, a node ending mid-line, and
    // re-registration that shrinks (the evicted tail must stop resolving).
    let scripted = [
        node(0x400, 192, &[(0, Metadata)], false),
        node(0x400, 192, &[(0, Record)], false),
        node(
            0x1000,
            256,
            &[(0, Metadata), (64, Record), (192, Metadata)],
            true,
        ),
        node(0x1100, 64, &[(0, Structure)], true),
        node(0x1800, 40, &[(0, Record)], true),
        node(0x1000, 64, &[(0, Record)], true),
    ];
    let mut rng = SmallRng::seed_from_u64(0x7ab1e);
    for case in 0..12 {
        let rt = Runtime::new_virtual();
        let mut model = Vec::new();
        for (i, n) in scripted.iter().enumerate() {
            register_and_compare(&rt, &mut model, n.clone(), &format!("scripted op {i}"));
        }
        for op in 0..80 {
            // A fresh slot, or the base of a node already registered.
            let base = match model.len() {
                n if n > 0 && rng.gen_bool(0.5) => model[rng.gen_range(0..n)].base,
                _ => 64 * rng.gen_range(8usize..140),
            };
            let lines = rng.gen_range(1usize..10);
            // Whole lines, or ending part-way through the last one.
            let len = lines * 64 - [0, 8, 24][rng.gen_range(0usize..3)];
            let classes = [Metadata, Record, Structure];
            let mut parts = vec![(0, classes[rng.gen_range(0usize..3)])];
            for _ in 0..rng.gen_range(0usize..3) {
                let off = 8 * rng.gen_range(0..len / 8);
                if off > parts.last().unwrap().0 {
                    parts.push((off, classes[rng.gen_range(0usize..3)]));
                }
            }
            let n = node(base, len, &parts, rng.gen_bool(0.5));
            register_and_compare(&rt, &mut model, n, &format!("case {case} op {op}"));
        }
    }
}
