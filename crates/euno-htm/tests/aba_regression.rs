//! Commit-path ABA regression: per-line *version* validation must abort a
//! reader whose logged line was retired, reclaimed, reused, and rewritten
//! with byte-identical contents.
//!
//! The predecessor NOrec commit path validated reads by *value*: a reader
//! re-read each logged cell and compared bytes. Epoch reclamation broke
//! that soundness argument — a leaf retired through the collector can be
//! freed and its allocation reused while a reader still holds the old
//! value in its log, and a writer storing the *same* bytes into the new
//! occupant makes stale validation pass (classic ABA). TL2-style per-line
//! versions close the hole: any commit to the line bumps its version
//! word, so the reader's `(line, version)` entry mismatches no matter
//! what bytes landed there.
//!
//! The choreography below forces exactly that interleaving with real
//! threads and channels:
//!
//! 1. Reader opens a transaction and reads `node.cell` (value 42),
//!    logging the line's version.
//! 2. Writer retires the node through the epoch collector, collects until
//!    the backing `Box` is actually freed, and re-allocates until the
//!    allocator hands the same address back.
//! 3. Writer transactionally stores **42** — stale-but-equal bytes — into
//!    the reused cell, and a flag into a second always-fresh cell.
//! 4. Reader resumes and reads the flag cell: its version is newer than
//!    the snapshot, which triggers read-set revalidation, which sees the
//!    reused line's bumped version and aborts the attempt.
//!
//! Value validation would have re-read 42 == 42 and committed on the
//! first attempt; version validation needs a second attempt. The assert
//! on `attempts == 2` is the regression gate.

use std::sync::mpsc;

use euno_htm::{Arena, Guard, RetryPolicy, Runtime, TxCell};

/// The reclaimed-and-reused payload. Plain `TxCell` so the reallocation
/// has the same size class as the retired node (the allocator reuses the
/// chunk immediately in practice; the test bounds the attempts).
struct Node {
    cell: TxCell<u64>,
}

const STALE_VALUE: u64 = 42;
const REUSE_TRIES: usize = 10_000;

#[repr(align(64))]
struct Padded(TxCell<u64>);

#[test]
fn reader_aborts_on_reused_line_with_equal_bytes() {
    let rt = Runtime::new_concurrent();
    let arena: Arena<Node> = Arena::new();
    let flag = Padded(TxCell::new(0u64));
    let fb = TxCell::new(0u64);

    let node = arena.alloc(Node {
        cell: TxCell::new(STALE_VALUE),
    });
    let node_addr = node as *const Node as usize;

    // reader -> writer: "I logged the line"; writer -> reader: "I
    // committed into the reused line" (false = reuse failed, bail out).
    let (logged_tx, logged_rx) = mpsc::channel::<()>();
    let (done_tx, done_rx) = mpsc::channel::<bool>();

    std::thread::scope(|s| {
        let (rt_ref, arena_ref, flag_ref, fb_ref) = (&rt, &arena, &flag, &fb);
        let writer = s.spawn(move || {
            let (rt, arena, flag, fb) = (rt_ref, arena_ref, flag_ref, fb_ref);
            let mut ctx = rt.thread(2);
            logged_rx.recv().unwrap();

            // Retire the node (pinned, per the grace-period contract) and
            // drain the collector until the deferred free has run. The
            // reader holds no pin — its open transaction is exactly the
            // hazard window the version table must cover.
            ctx.pinned(|_, _: Guard<Node, 0>| {
                assert!(arena.retire(rt.epoch(), node_addr as *const Node));
            });
            let mut spins = 0;
            while rt.epoch().reclaimed() == 0 {
                rt.epoch().collect();
                spins += 1;
                assert!(spins < 64, "collector never freed the retired node");
            }

            // Hammer the allocator until the freed chunk is reused. Keep
            // the misses alive so retrying does not just cycle one chunk.
            let mut _misses = Vec::new();
            let mut reused = None;
            for _ in 0..REUSE_TRIES {
                let n = arena.alloc(Node {
                    cell: TxCell::new(0),
                });
                if n as *const Node as usize == node_addr {
                    reused = Some(n);
                    break;
                }
                _misses.push(n as *const Node as usize);
            }
            let Some(new_node) = reused else {
                done_tx.send(false).unwrap();
                return;
            };

            // The ABA store: byte-identical contents into the reused
            // line, plus a fresh flag the reader will look at next.
            ctx.htm_execute(fb, &RetryPolicy::default(), |tx| {
                tx.write(&new_node.cell, STALE_VALUE)?;
                tx.write(&flag.0, 1)
            });
            done_tx.send(true).unwrap();
        });

        let mut ctx = rt.thread(1);
        let mut attempt = 0u32;
        let mut reuse_ok = true;
        let out = ctx.htm_execute(&fb, &RetryPolicy::default(), |tx| {
            attempt += 1;
            if attempt == 1 {
                // Log the doomed line, then hold the transaction open
                // across the retire/reclaim/reuse/rewrite sequence.
                let v = tx.read(unsafe { &(*(node_addr as *const Node)).cell })?;
                assert_eq!(v, STALE_VALUE);
                logged_tx.send(()).unwrap();
                reuse_ok = done_rx.recv().unwrap();
                if !reuse_ok {
                    // Allocator never reused the address: nothing to
                    // assert, finish quietly.
                    return Ok(0);
                }
            }
            // Newer-version read forces read-set revalidation: on attempt
            // 1 the logged (reused) line fails it; attempt 2 is clean.
            tx.read(&flag.0)
        });
        writer.join().unwrap();

        if !reuse_ok {
            eprintln!("skipped: allocator never reused the retired node's address");
            return;
        }
        assert_eq!(out.value, 1, "reader must observe the committed flag");
        assert_eq!(
            out.attempts, 2,
            "version validation must abort the first attempt; value \
             validation would have passed it (ABA)"
        );
        assert!(
            ctx.stats.aborts.total() >= 1,
            "the aborted attempt must be tallied"
        );
    });
}
