//! euno-serve: a server-shaped front-end for the Eunomia trees.
//!
//! The paper's trees scale one structure under contention; this crate
//! scales them *horizontally* (a Fibonacci-hash keyspace router over N
//! independent [`EunoBTreeDefault`](euno_core::EunoBTreeDefault) shards,
//! each with its own runtime and worker thread) and *vertically*
//! (per-shard bounded request channels whose workers drain up to
//! `batch_max` requests into one group-commit episode batch via
//! [`EunoBTree::apply_batch`](euno_core::EunoBTree::apply_batch),
//! amortizing the per-episode fixed costs that dominate small
//! operations).
//!
//! The API is executor-free but async-friendly, in the spirit of scc's
//! awaitable containers: submission returns a [`Ticket`] the caller may
//! block on ([`Ticket::wait`]) or poll ([`Ticket::poll`]), or drop to
//! give the reply up: the request still runs, the worker records its
//! latency, and the worker recycles the reply slot itself. As in scc,
//! the caller writes only safe code, and so does the crate: it is
//! `forbid(unsafe_code)`, its queues are `std`'s.
//!
//! See DESIGN.md §15 for the architecture and the fallback-to-singles
//! batching policy; the tier is measured by the repo benchmark's
//! `serve-sat` and `serve-open` workloads.

#![forbid(unsafe_code)]

pub mod fault;
mod router;
mod server;
mod slot;

pub use router::{merge_scans, shard_of};
pub use server::{EunoServer, Reply, Request, ServeConfig, ServeSnapshot, Shed, Ticket};

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(shards: usize, batch_max: usize) -> EunoServer {
        EunoServer::start(ServeConfig {
            shards,
            queue_capacity: 64,
            batch_max,
            ..ServeConfig::default()
        })
    }

    #[test]
    fn point_ops_roundtrip() {
        let srv = tiny(2, 8);
        assert_eq!(srv.put(1, 10), None);
        assert_eq!(srv.put(2, 20), None);
        assert_eq!(srv.get(1), Some(10));
        assert_eq!(srv.put(1, 11), Some(10));
        assert_eq!(srv.delete(2), Some(20));
        assert_eq!(srv.get(2), None);
        let snap = srv.snapshot();
        assert_eq!(snap.shards, 2);
        assert_eq!(snap.completed, 6);
        srv.shutdown();
    }

    #[test]
    fn scatter_gather_scan_merges_shards() {
        let srv = tiny(3, 8);
        srv.preload_dense(200, |k| k * 3);
        let mut out = Vec::new();
        assert_eq!(srv.scan(50, 10, &mut out), 10);
        let want: Vec<(u64, u64)> = (50..60).map(|k| (k, k * 3)).collect();
        assert_eq!(out, want);
        // Tail truncation.
        assert_eq!(srv.scan(195, 50, &mut out), 5);
        srv.shutdown();
    }

    #[test]
    fn batching_matches_unbatched_under_concurrency() {
        // Same seeded client traffic against drains of up to 8 (batched)
        // and drains of one (never batched).
        use euno_rng::SmallRng;
        let run = |batch_max: usize| -> Vec<(u64, u64)> {
            let srv = tiny(2, batch_max);
            srv.preload_dense(64, |k| k);
            std::thread::scope(|s| {
                for t in 0..3u64 {
                    let srv = &srv;
                    s.spawn(move || {
                        let mut rng = SmallRng::seed_from_u64(0xABCD + t);
                        for i in 0..500u64 {
                            let key = rng.gen_range(0..128u64);
                            match rng.gen_range(0..3u32) {
                                0 => {
                                    srv.put(key, (t + 1) << 32 | i);
                                }
                                1 => {
                                    srv.get(key);
                                }
                                _ => {
                                    srv.delete(key);
                                }
                            }
                        }
                    });
                }
            });
            let mut out = Vec::new();
            srv.scan(0, 1024, &mut out);
            let snap = srv.snapshot();
            assert_eq!(snap.completed, snap.enqueued);
            if batch_max > 1 {
                assert!(snap.batches > 0, "batched run must actually batch");
            } else {
                assert_eq!(snap.batches, 0);
            }
            srv.shutdown();
            out
        };
        // Concurrent interleavings differ, so the *final maps* can't be
        // compared directly — but every surviving record must have been
        // written by some client, and both runs must complete cleanly.
        for survivors in [run(8), run(1)] {
            for (k, v) in survivors {
                assert!(k < 128);
                assert!(v < 128 || (v >> 32) >= 1);
            }
        }
    }
}
