//! Debug-only fault injection, in the style of `euno_core::probe`: a test
//! arms a key, and the next shard worker to take a request on that key
//! panics there — which is how `tests/poisoned_shard.rs` makes a worker
//! die with requests queued and in flight. The armed key is one word for
//! the whole process, so a test arms a key no other test uses. Everything
//! compiles away in release builds, where arming does nothing.

#[cfg(debug_assertions)]
mod imp {
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Nothing armed.
    const NONE: u64 = u64::MAX;

    static ARMED: AtomicU64 = AtomicU64::new(NONE);

    /// Make the next worker that takes a request on `key` panic.
    pub fn panic_on_key(key: u64) {
        ARMED.store(key, Ordering::SeqCst);
    }

    /// A worker takes a request on `key`: panic if that key is armed
    /// (once; the key is disarmed first).
    pub(crate) fn take(key: u64) {
        if key != NONE
            && ARMED
                .compare_exchange(key, NONE, Ordering::SeqCst, Ordering::Relaxed)
                .is_ok()
        {
            panic!("injected fault: a shard worker took key {key}");
        }
    }
}

#[cfg(debug_assertions)]
pub use imp::panic_on_key;
#[cfg(debug_assertions)]
pub(crate) use imp::take;

#[cfg(not(debug_assertions))]
pub fn panic_on_key(_key: u64) {}

#[cfg(not(debug_assertions))]
#[inline(always)]
pub(crate) fn take(_key: u64) {}
