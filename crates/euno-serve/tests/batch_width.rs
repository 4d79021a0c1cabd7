//! Regression: a shard whose adaptive batch width collapsed to 1 must
//! widen again once traffic is clean.
//!
//! The worker halves its width on a thrashed batch and grows it on a
//! clean one — but only a drain of two or more requests used to count as
//! a batch, so at width 1 the grow step was unreachable and the shard
//! served per-request for the rest of its life (`serve.mean_batch`
//! reading 0 in the repo benchmark's `serve-open` runs).

use std::time::{Duration, Instant};

use euno_serve::{EunoServer, Request, ServeConfig};

/// Submit `reqs` back to back (so several sit in the queue at once and a
/// drain can take more than one), then wait for all of them.
fn burst(srv: &EunoServer, reqs: impl Iterator<Item = Request>) {
    let tickets: Vec<_> = reqs
        .map(|req| loop {
            match srv.submit(req) {
                Ok(t) => break t,
                Err(_) => std::thread::yield_now(),
            }
        })
        .collect();
    for t in tickets {
        t.wait();
    }
}

#[test]
fn collapsed_batch_width_recovers_on_clean_traffic() {
    // batch_max 2: one thrashed batch halves the width straight to 1.
    let srv = EunoServer::start(ServeConfig {
        shards: 1,
        batch_max: 2,
        ..ServeConfig::default()
    });
    let deadline = Instant::now() + Duration::from_secs(30);

    // Thrash: fresh ascending keys keep filling the rightmost leaf, so
    // batched puts that need a split bail to the singles path; a batch of
    // two with one bail counts as thrashed.
    let mut next_key = 0u64;
    while srv.snapshot().batch_shrinks == 0 {
        assert!(Instant::now() < deadline, "never forced a width collapse");
        burst(
            &srv,
            (next_key..next_key + 64).map(|key| Request::Put { key, value: key }),
        );
        next_key += 64;
    }

    // Clean traffic: gets on resident keys neither conflict nor bail.
    // Batches of two must resume.
    let before = srv.snapshot().batches;
    while srv.snapshot().batches == before {
        assert!(
            Instant::now() < deadline,
            "width stayed collapsed: no batch formed on clean traffic"
        );
        burst(&srv, (0..64).map(|key| Request::Get { key }));
    }
    srv.shutdown();
}
