//! Pin each rank thread to a CPU of its own, so that which rank runs on which
//! CPU is the same in every universe instead of the scheduler's choice.

/// Mask words passed to the kernel: room for 1024 CPUs.
const MASK_WORDS: usize = 16;

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// The CPUs the calling thread may run on, ascending (empty if unknown).
pub fn allowed_cpus() -> Vec<usize> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: `mask` is writable and exactly `size_of_val(&mask)` bytes long;
    // pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Vec::new();
    }
    (0..MASK_WORDS * 64)
        .filter(|&c| (mask[c / 64] >> (c % 64)) & 1 == 1)
        .collect()
}

/// Pin the calling thread to the `index`-th allowed CPU (modulo their
/// count). Returns the CPU, or `None` if the kernel refused.
pub fn pin_current_thread(index: usize) -> Option<usize> {
    let cpus = allowed_cpus();
    let cpu = *cpus.get(index % cpus.len().max(1))?;
    let mut mask = [0u64; MASK_WORDS];
    mask[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `mask` is readable and exactly `size_of_val(&mask)` bytes long;
    // pid 0 names the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    (rc == 0).then_some(cpu)
}
