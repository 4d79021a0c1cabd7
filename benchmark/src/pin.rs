//! Thread placement through `sched_setaffinity`, declared here so the
//! benchmark needs no libc crate. On this 2-vCPU guest an unpinned
//! client/worker pair lands on one CPU in some runs and on two in others,
//! which moves serve throughput by an order of magnitude; pinning makes
//! the wall workloads repeat.

const MASK_WORDS: usize = 16; // 1024 CPUs

extern "C" {
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
}

fn set_mask(cpus: &[usize]) -> bool {
    let mut mask = [0u64; MASK_WORDS];
    for &c in cpus {
        mask[c / 64] |= 1 << (c % 64);
    }
    // SAFETY: `mask` is a live, properly sized buffer for the whole call;
    // pid 0 addresses the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

fn allowed_cpus() -> Vec<usize> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: as above; the kernel writes at most `cpusetsize` bytes.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Vec::new();
    }
    (0..MASK_WORDS * 64)
        .filter(|c| mask[c / 64] >> (c % 64) & 1 == 1)
        .collect()
}

/// The two CPUs the benchmark places its threads on, or nothing when the
/// process may run on fewer than two (then every `pin_*` is a no-op and
/// the traced output says `pinned = 0`).
pub struct Placement {
    allowed: Vec<usize>,
}

impl Placement {
    pub fn detect() -> Self {
        Placement {
            allowed: allowed_cpus(),
        }
    }

    pub fn pinned(&self) -> bool {
        self.allowed.len() >= 2
    }

    /// CPU of the load generator (client, first worker thread).
    pub fn pin_client(&self) -> bool {
        self.pinned() && set_mask(&self.allowed[..1])
    }

    /// CPU of the served side (shard worker, second worker thread). A
    /// thread spawned afterwards inherits the mask.
    pub fn pin_server(&self) -> bool {
        self.pinned() && set_mask(&self.allowed[1..2])
    }
}
