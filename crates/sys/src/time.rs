//! Clocks and sleeping.
//!
//! The paper's measurements use the SPARCstation's "built-in microsecond
//! resolution real-time timer"; our equivalent is `CLOCK_MONOTONIC`. Per-LWP
//! virtual-time accounting (the paper's LWP interval timers decrement in LWP
//! user/system time) is served by `CLOCK_THREAD_CPUTIME_ID`.

use core::time::Duration;

use crate::errno::Errno;
use crate::syscall::{check, nr, syscall2};

/// `struct timespec` with the kernel's layout.
#[repr(C)]
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct Timespec {
    /// Whole seconds.
    pub sec: i64,
    /// Nanoseconds in `0..1_000_000_000`.
    pub nsec: i64,
}

impl Timespec {
    /// Converts a `Duration`, saturating at `i64::MAX` seconds (a wrapped,
    /// negative `tv_sec` would make the kernel reject the wait with
    /// `EINVAL` instead of sleeping).
    pub fn from_duration(d: Duration) -> Timespec {
        Timespec {
            sec: i64::try_from(d.as_secs()).unwrap_or(i64::MAX),
            nsec: d.subsec_nanos() as i64,
        }
    }

    /// Converts to a `Duration`; negative values clamp to zero.
    pub fn to_duration(self) -> Duration {
        if self.sec < 0 || self.nsec < 0 {
            Duration::ZERO
        } else {
            Duration::new(self.sec as u64, self.nsec as u32)
        }
    }
}

/// Clock identifiers accepted by [`clock_gettime`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Clock {
    /// Wall-clock-ish monotonic time; our stand-in for the paper's
    /// microsecond real-time timer.
    Monotonic,
    /// CPU time consumed by the calling kernel thread (LWP) — the basis for
    /// per-LWP virtual-time interval timers.
    ThreadCpu,
    /// CPU time consumed by the whole process (all LWPs) — the basis for
    /// `getrusage`-style whole-process accounting.
    ProcessCpu,
}

impl Clock {
    fn id(self) -> usize {
        match self {
            Clock::Monotonic => 1,
            Clock::ProcessCpu => 2,
            Clock::ThreadCpu => 3,
        }
    }
}

/// Reads a clock.
pub fn clock_gettime(clock: Clock) -> Result<Timespec, Errno> {
    let mut ts = Timespec::default();
    // SAFETY: `ts` is a valid, writable `timespec` for the duration of the
    // call.
    let ret = unsafe {
        syscall2(
            nr::CLOCK_GETTIME,
            clock.id(),
            &mut ts as *mut Timespec as usize,
        )
    };
    check(ret).map(|_| ts)
}

/// Returns monotonic time as a `Duration` since an arbitrary epoch.
///
/// # Panics
///
/// Panics if the kernel rejects `CLOCK_MONOTONIC`, which cannot happen on a
/// conforming Linux.
pub fn monotonic_now() -> Duration {
    clock_gettime(Clock::Monotonic)
        .expect("CLOCK_MONOTONIC must exist")
        .to_duration()
}

/// Returns the calling LWP's consumed CPU time.
///
/// # Panics
///
/// Panics if the kernel rejects `CLOCK_THREAD_CPUTIME_ID`, which cannot
/// happen on a conforming Linux.
pub fn thread_cpu_now() -> Duration {
    clock_gettime(Clock::ThreadCpu)
        .expect("CLOCK_THREAD_CPUTIME_ID must exist")
        .to_duration()
}

/// Sleeps the calling LWP for at least `d` (restarting on `EINTR`).
pub fn sleep(d: Duration) {
    let mut req = Timespec::from_duration(d);
    loop {
        let mut rem = Timespec::default();
        // SAFETY: `req` and `rem` are valid for the duration of the call.
        let ret = unsafe {
            syscall2(
                nr::NANOSLEEP,
                &req as *const Timespec as usize,
                &mut rem as *mut Timespec as usize,
            )
        };
        match check(ret) {
            Ok(_) => return,
            Err(Errno::EINTR) => req = rem,
            Err(e) => unreachable!("nanosleep failed: {e}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monotonic_advances() {
        let a = monotonic_now();
        let b = monotonic_now();
        assert!(b >= a);
    }

    #[test]
    fn sleep_sleeps() {
        let a = monotonic_now();
        sleep(Duration::from_millis(15));
        assert!(monotonic_now() - a >= Duration::from_millis(14));
    }

    #[test]
    fn thread_cpu_counts_work_not_sleep() {
        let a = thread_cpu_now();
        sleep(Duration::from_millis(30));
        let after_sleep = thread_cpu_now() - a;
        assert!(
            after_sleep < Duration::from_millis(25),
            "sleep must not accrue LWP virtual time (got {after_sleep:?})"
        );
        let mut x = 0u64;
        while thread_cpu_now() - a < Duration::from_millis(5) {
            x = x.wrapping_mul(2654435761).wrapping_add(1);
        }
        std::hint::black_box(x);
        assert!(thread_cpu_now() - a >= Duration::from_millis(5));
    }

    #[test]
    fn timespec_round_trip() {
        let d = Duration::new(3, 456_789);
        assert_eq!(Timespec::from_duration(d).to_duration(), d);
        let neg = Timespec { sec: -1, nsec: 0 };
        assert_eq!(neg.to_duration(), Duration::ZERO);
        assert_eq!(Timespec::from_duration(Duration::MAX).sec, i64::MAX);
    }
}
