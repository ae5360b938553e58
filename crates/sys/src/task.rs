//! Kernel task identity and scheduling hooks.

use crate::errno::Errno;
use crate::syscall::{check, nr, syscall0, syscall3};

/// Returns the kernel task id of the calling LWP.
///
/// On Linux every thread is a task with its own id — the direct analog of
/// the paper's per-LWP "LWP ID ... maintained by the kernel".
pub fn gettid() -> u32 {
    // SAFETY: GETTID takes no arguments and has no memory effects.
    unsafe { syscall0(nr::GETTID) as u32 }
}

/// Returns the process id.
pub fn getpid() -> u32 {
    // SAFETY: GETPID takes no arguments and has no memory effects.
    unsafe { syscall0(nr::GETPID) as u32 }
}

/// Yields the calling LWP's processor to another runnable LWP.
pub fn sched_yield() {
    // SAFETY: SCHED_YIELD takes no arguments and has no memory effects.
    let _ = check(unsafe { syscall0(nr::SCHED_YIELD) });
}

/// A set of CPUs as the kernel's affinity calls read and write it: bit
/// `n` of a 1,024-bit mask is CPU `n`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CpuSet {
    bits: [u64; 16],
}

impl CpuSet {
    /// The set holding only `cpu`.
    ///
    /// # Panics
    ///
    /// If `cpu` is 1,024 or more.
    pub fn single(cpu: usize) -> CpuSet {
        let mut bits = [0; 16];
        bits[cpu / 64] = 1 << (cpu % 64);
        CpuSet { bits }
    }

    /// The highest-numbered CPU in the set.
    pub fn last(&self) -> Option<usize> {
        let i = self.bits.iter().rposition(|w| *w != 0)?;
        Some(i * 64 + 63 - self.bits[i].leading_zeros() as usize)
    }
}

/// Confines the calling LWP to the CPUs in `set` — the paper's "the LWP may
/// also ask to be bound to a CPU".
pub fn sched_setaffinity(set: &CpuSet) -> Result<(), Errno> {
    // SAFETY: pid 0 names the calling task, and the kernel reads exactly
    // `size_of_val(&set.bits)` bytes from a pointer to that live array.
    check(unsafe {
        syscall3(
            nr::SCHED_SETAFFINITY,
            0,
            core::mem::size_of_val(&set.bits),
            set.bits.as_ptr() as usize,
        )
    })
    .map(drop)
}

/// The CPUs the calling LWP may run on.
pub fn sched_getaffinity() -> Result<CpuSet, Errno> {
    let mut set = CpuSet { bits: [0; 16] };
    // SAFETY: pid 0 names the calling task, and the kernel writes at most
    // `size_of_val(&set.bits)` bytes through a pointer to that live,
    // exclusively borrowed array; bytes it does not write stay zero.
    check(unsafe {
        syscall3(
            nr::SCHED_GETAFFINITY,
            0,
            core::mem::size_of_val(&set.bits),
            set.bits.as_mut_ptr() as usize,
        )
    })?;
    Ok(set)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn main_thread_tid_equals_pid() {
        // Run in a dedicated thread so this holds regardless of which test
        // thread executes first: a *non*-main thread must have tid != pid.
        let h = std::thread::spawn(|| (gettid(), getpid()));
        let (tid, pid) = h.join().unwrap();
        assert_eq!(pid, std::process::id());
        assert_ne!(tid, pid, "a spawned LWP has its own kernel task id");
    }

    #[test]
    fn yield_returns() {
        sched_yield();
    }

    #[test]
    fn a_thread_bound_to_one_cpu_reads_that_cpu_back() {
        // A spawned thread, so the binding dies with it.
        std::thread::spawn(|| {
            let allowed = sched_getaffinity().expect("getaffinity");
            let cpu = allowed.last().expect("some CPU is allowed");
            sched_setaffinity(&CpuSet::single(cpu)).expect("setaffinity");
            assert_eq!(
                sched_getaffinity().expect("getaffinity"),
                CpuSet::single(cpu)
            );
        })
        .join()
        .unwrap();
    }

    #[test]
    fn cpu_set_bits() {
        let s = CpuSet::single(70);
        assert_eq!(s.bits[1], 1 << 6);
        assert_eq!(s.last(), Some(70));
        assert_eq!(CpuSet::single(0).last(), Some(0));
        assert_eq!(CpuSet::single(1_023).last(), Some(1_023));
    }
}
