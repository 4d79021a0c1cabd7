//! A ticket dropped unwaited gives its slot back. A leaked slot is gone
//! for good: once `queue_capacity` of them leak, the shard sheds every
//! request and the blocking helpers spin forever. Every wait here is
//! bounded, so a regression fails the test instead of hanging the suite.

use std::sync::{mpsc, Arc};
use std::time::Duration;

use euno_serve::{EunoServer, Request, ServeConfig};

const TIMEOUT: Duration = Duration::from_secs(20);

#[test]
fn dropped_tickets_recycle_their_slots() {
    let srv = Arc::new(EunoServer::start(ServeConfig {
        shards: 1,
        queue_capacity: 2,
        ..ServeConfig::default()
    }));
    let (tx, rx) = mpsc::channel();
    let helper = std::thread::spawn({
        let srv = Arc::clone(&srv);
        move || {
            for key in 0..4 {
                // Shed while the worker still holds both slots: retry.
                while srv
                    .submit(Request::Put {
                        key,
                        value: key + 1,
                    })
                    .is_err()
                {
                    std::thread::yield_now();
                }
            }
            tx.send(srv.get(3)).unwrap();
        }
    });
    let got = rx
        .recv_timeout(TIMEOUT)
        .expect("four dropped tickets starved a blocking get");
    assert_eq!(got, Some(4), "a dropped ticket's request still runs");
    helper.join().unwrap();
}
