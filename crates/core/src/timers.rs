//! Per-thread CPU-time accounting and virtual interval timers.
//!
//! The paper keeps interval timers per *LWP* ("Each LWP has two private
//! interval timers ... When these interval timers expire either `SIGVTALRM`
//! or `SIGPROF`, as appropriate, is sent to the LWP") and leaves per-thread
//! timers to the library: "Library routines may implement multiple
//! per-thread timers ... when that functionality is required." This module
//! is that library routine:
//!
//! * [`thread_cpu_time`] — the calling thread's consumed CPU time, summed
//!   across all the LWPs that have run it (the scheduler charges each
//!   dispatch interval to the thread it ran).
//! * [`arm`]/[`disarm`] — a per-thread virtual ([`TimerKind::Virtual`] →
//!   `SIGVTALRM`) or profiling ([`TimerKind::Profiling`] → `SIGPROF`)
//!   interval timer over that clock. Expiries are posted as the thread's
//!   pending signals and delivered at its next delivery point — install a
//!   handler with [`crate::signals::set_disposition`].
//!
//! Both timers tick in thread user+system time: the host exposes one
//! virtual clock per kernel task (see DESIGN.md), so the Virtual/Profiling
//! distinction here is which signal fires, as in the paper's API.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use crate::sched;
use crate::signals::sig;
use crate::thread::Thread;

/// Which per-thread interval timer: the paper's two timers differ in the
/// signal their expiry delivers.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TimerKind {
    /// Expiry delivers `SIGVTALRM`.
    Virtual,
    /// Expiry delivers `SIGPROF`.
    Profiling,
}

/// Whether any thread has asked for CPU accounting (a timer or a
/// `thread_cpu_time` call). Until then the scheduler skips the two clock
/// reads per dispatch, keeping the paper's sub-microsecond thread switch.
static ACCOUNTING: AtomicBool = AtomicBool::new(false);

/// Fast check used by the dispatcher.
pub(crate) fn accounting_enabled() -> bool {
    ACCOUNTING.load(Ordering::Relaxed)
}

fn enable_accounting() {
    ACCOUNTING.store(true, Ordering::Relaxed);
}

/// Sentinel in `dispatch_cpu0_ns` meaning "no sample for this dispatch".
pub(crate) const NOT_SAMPLED: u64 = u64::MAX;

/// The calling thread's consumed CPU time.
///
/// For a bound thread this equals its LWP's CPU clock; for an unbound
/// thread it is the sum of all its dispatch intervals, across however many
/// LWPs have run it.
pub fn thread_cpu_time() -> Duration {
    enable_accounting();
    let t = sched::current_thread();
    Duration::from_nanos(live_cpu_ns(&t))
}

/// CPU nanoseconds including the live (current) dispatch.
///
/// Only meaningful when called *on* the thread (the live-dispatch term
/// samples this LWP's clock).
pub(crate) fn live_cpu_ns(t: &Thread) -> u64 {
    let base = t.cpu_ns.load(Ordering::Relaxed);
    let d0 = t.dispatch_cpu0_ns.load(Ordering::Relaxed);
    if d0 == NOT_SAMPLED {
        // Accounting was enabled mid-dispatch: start the clock now.
        t.dispatch_cpu0_ns
            .store(sunmt_lwp::cpu_time().as_nanos() as u64, Ordering::Relaxed);
        return base;
    }
    // Saturate: clocks are per-LWP, so a delta observed across a migration
    // race must read as zero rather than wrap.
    base + (sunmt_lwp::cpu_time().as_nanos() as u64).saturating_sub(d0)
}

/// Arms (or re-arms) the calling thread's timer of the given kind to fire
/// every `interval` of its CPU time.
///
/// # Panics
///
/// Panics on a zero interval (that encoding means "disarmed").
pub fn arm(kind: TimerKind, interval: Duration) {
    assert!(!interval.is_zero(), "interval timers need a nonzero period");
    enable_accounting();
    let t = sched::current_thread();
    let now = live_cpu_ns(&t);
    let ns = interval.as_nanos() as u64;
    let (deadline, period) = fields(&t, kind);
    deadline.store(now + ns, Ordering::Relaxed);
    period.store(ns, Ordering::Relaxed);
}

/// Disarms the calling thread's timer of the given kind.
pub fn disarm(kind: TimerKind) {
    let t = sched::current_thread();
    let (_, period) = fields(&t, kind);
    period.store(0, Ordering::Relaxed);
}

fn fields(
    t: &Thread,
    kind: TimerKind,
) -> (&std::sync::atomic::AtomicU64, &std::sync::atomic::AtomicU64) {
    match kind {
        TimerKind::Virtual => (&t.vt_deadline_ns, &t.vt_interval_ns),
        TimerKind::Profiling => (&t.prof_deadline_ns, &t.prof_interval_ns),
    }
}

/// Checks both timers of `t` (which must be the calling thread) and pends
/// the corresponding signals for every expiry. Called from the signal
/// delivery points.
pub(crate) fn poll_current(t: &Thread) {
    // The overwhelmingly common case — no timer armed — must not cost a
    // clock read per delivery point.
    if t.vt_interval_ns.load(Ordering::Relaxed) == 0
        && t.prof_interval_ns.load(Ordering::Relaxed) == 0
    {
        return;
    }
    let now = live_cpu_ns(t);
    for (kind, signo) in [
        (TimerKind::Virtual, sig::SIGVTALRM),
        (TimerKind::Profiling, sig::SIGPROF),
    ] {
        let (deadline, period) = fields(t, kind);
        let p = period.load(Ordering::Relaxed);
        if p == 0 {
            continue;
        }
        let d = deadline.load(Ordering::Relaxed);
        if now >= d {
            // Catch up past missed periods; pending signals are a set, so
            // multiple missed expiries collapse into one delivery — the
            // usual non-queuing signal rule.
            let missed = 1 + (now - d) / p;
            deadline.store(d + missed * p, Ordering::Relaxed);
            t.pending.fetch_or(1 << signo, Ordering::SeqCst);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signals::{self, Disposition};
    use crate::{wait, CreateFlags, ThreadBuilder};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    fn burn(d: Duration) {
        let start = thread_cpu_time();
        let mut x = 0u64;
        while thread_cpu_time() - start < d {
            x = x.wrapping_mul(2654435761).wrapping_add(3);
        }
        std::hint::black_box(x);
    }

    #[test]
    fn thread_cpu_time_advances_with_work_not_sleep() {
        let id = ThreadBuilder::new()
            .flags(CreateFlags::WAIT)
            .spawn(|| {
                let t0 = thread_cpu_time();
                std::thread::sleep(Duration::from_millis(20));
                let after_sleep = thread_cpu_time() - t0;
                assert!(
                    after_sleep < Duration::from_millis(15),
                    "sleep charged as CPU time: {after_sleep:?}"
                );
                burn(Duration::from_millis(5));
                assert!(thread_cpu_time() - t0 >= Duration::from_millis(5));
            })
            .expect("spawn");
        wait(Some(id)).expect("wait");
    }

    #[test]
    fn virtual_timer_delivers_sigvtalrm() {
        let hits = Arc::new(AtomicUsize::new(0));
        let h = Arc::clone(&hits);
        signals::set_disposition(
            sig::SIGVTALRM,
            Disposition::Handler(Arc::new(move |s| {
                assert_eq!(s, sig::SIGVTALRM);
                h.fetch_add(1, Ordering::SeqCst);
            })),
        )
        .expect("handler");
        let h2 = Arc::clone(&hits);
        let id = ThreadBuilder::new()
            .flags(CreateFlags::WAIT)
            .spawn(move || {
                let before = h2.load(Ordering::SeqCst);
                arm(TimerKind::Virtual, Duration::from_millis(3));
                while h2.load(Ordering::SeqCst) == before {
                    burn(Duration::from_millis(1));
                    signals::poll(); // Delivery point.
                }
                disarm(TimerKind::Virtual);
            })
            .expect("spawn");
        wait(Some(id)).expect("wait");
        assert!(hits.load(Ordering::SeqCst) >= 1);
    }

    #[test]
    fn disarmed_timer_stays_silent() {
        let id = ThreadBuilder::new()
            .flags(CreateFlags::WAIT)
            .spawn(|| {
                arm(TimerKind::Profiling, Duration::from_millis(1));
                disarm(TimerKind::Profiling);
                burn(Duration::from_millis(3));
                signals::poll();
                assert_eq!(
                    signals::pending() & (1 << sig::SIGPROF),
                    0,
                    "disarmed timer must not pend SIGPROF"
                );
            })
            .expect("spawn");
        wait(Some(id)).expect("wait");
    }

    #[test]
    fn timers_are_per_thread() {
        // Arming a timer in one thread must not tick in another.
        let id = ThreadBuilder::new()
            .flags(CreateFlags::WAIT)
            .spawn(|| {
                arm(TimerKind::Virtual, Duration::from_millis(1));
                // Exit without disarming; the timer dies with the thread.
            })
            .expect("spawn");
        wait(Some(id)).expect("wait");
        let id2 = ThreadBuilder::new()
            .flags(CreateFlags::WAIT)
            .spawn(|| {
                burn(Duration::from_millis(3));
                signals::poll();
                assert_eq!(
                    signals::pending() & (1 << sig::SIGVTALRM),
                    0,
                    "another thread's timer leaked into this one"
                );
            })
            .expect("spawn");
        wait(Some(id2)).expect("wait");
    }
}
