//! CPU placement of the timed in-process passes.
//!
//! On a shared virtual host the vCPUs differ in speed by up to 40% at a
//! time, each sharing its physical core with other tenants, and a slowed
//! vCPU can stay slow for minutes. A run left to the scheduler measures
//! whichever vCPU it lands on, so whole runs came out fast or slow. The
//! passes of a run therefore alternate between the CPUs the process may
//! use, and each job counts at its fastest pass: one slowed vCPU cannot
//! slow a whole run. The engine's work is the same on every CPU.

use std::sync::OnceLock;

/// The CPUs the process may use, read once before any pinning.
pub fn allowed() -> &'static [usize] {
    static ALLOWED: OnceLock<Vec<usize>> = OnceLock::new();
    ALLOWED.get_or_init(|| {
        let found = sys::current().unwrap_or_default();
        if found.is_empty() {
            (0..std::thread::available_parallelism().map_or(1, |n| n.get())).collect()
        } else {
            found
        }
    })
}

/// Pins the calling thread (and threads it spawns afterwards) to the
/// `i`-th allowed CPU, round robin, and returns that CPU.
pub fn pin_round_robin(i: usize) -> Option<usize> {
    let cpus = allowed();
    let cpu = cpus[i % cpus.len()];
    sys::set(&[cpu]).then_some(cpu)
}

/// Lets the calling thread run on every allowed CPU again.
pub fn unpin() {
    sys::set(allowed());
}

#[cfg(target_os = "linux")]
mod sys {
    /// glibc's `cpu_set_t`: a 1024-bit CPU mask.
    #[repr(C)]
    struct CpuSet([u64; 16]);

    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
    }

    const SIZE: usize = std::mem::size_of::<CpuSet>();

    /// The calling thread's CPU mask.
    pub fn current() -> Option<Vec<usize>> {
        let mut set = CpuSet([0; 16]);
        // SAFETY: `set` is a writable buffer of exactly `SIZE` bytes with
        // the layout of `cpu_set_t`, and pid 0 names the calling thread.
        if unsafe { sched_getaffinity(0, SIZE, &mut set) } != 0 {
            return None;
        }
        Some(
            (0..1024)
                .filter(|&i| (set.0[i / 64] >> (i % 64)) & 1 == 1)
                .collect(),
        )
    }

    /// Restricts the calling thread to `cpus`; `false` if refused.
    pub fn set(cpus: &[usize]) -> bool {
        let mut set = CpuSet([0; 16]);
        for &c in cpus.iter().filter(|&&c| c < 1024) {
            set.0[c / 64] |= 1 << (c % 64);
        }
        // SAFETY: `set` is a readable buffer of exactly `SIZE` bytes with
        // the layout of `cpu_set_t`, and pid 0 names the calling thread.
        unsafe { sched_setaffinity(0, SIZE, &set) == 0 }
    }
}

#[cfg(not(target_os = "linux"))]
mod sys {
    pub fn current() -> Option<Vec<usize>> {
        None
    }

    pub fn set(_cpus: &[usize]) -> bool {
        false
    }
}
