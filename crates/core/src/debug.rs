//! Debugger cooperation: the library half of the paper's `/proc` story.
//!
//! "Of necessity, a kernel process model interface can provide access only
//! to kernel-supported threads of control, namely LWPs. Debugger control of
//! library threads is accomplished by cooperation between the debugger and
//! the threads library" — i.e. the library must expose its thread table.
//! This module is that interface: a consistent snapshot of every thread the
//! library knows about, plus per-thread control that a debugger (or a test)
//! can drive through ordinary `thread_stop`/`thread_continue`.

use std::sync::atomic::Ordering;

use crate::sched;
use crate::types::{CreateFlags, ThreadId, ThreadState};

/// One thread as a debugger sees it through the library.
#[derive(Clone, Debug)]
pub struct ThreadInfo {
    /// The thread id.
    pub id: ThreadId,
    /// Lifecycle state at snapshot time.
    pub state: ThreadState,
    /// Scheduling priority.
    pub priority: i32,
    /// Whether the thread is permanently bound to an LWP.
    pub bound: bool,
    /// Creation flags.
    pub flags: CreateFlags,
    /// The thread's signal mask.
    pub sigmask: u64,
    /// Pending (undelivered) signals.
    pub pending_signals: u64,
    /// Times this thread was dispatched onto an LWP (user-level context
    /// switches; 0 for bound threads, whose switches the kernel makes).
    pub ctx_switches: u64,
    /// CPU time (ns) accumulated over completed dispatches. Only advances
    /// while CPU-time accounting is on (see `cpu_time_ns`); a bound
    /// thread's time lives on its LWP clock instead.
    pub cpu_ns: u64,
}

fn info_of(t: &std::sync::Arc<crate::thread::Thread>) -> ThreadInfo {
    ThreadInfo {
        id: t.id,
        state: t.state(),
        priority: t.priority(),
        bound: t.bound,
        flags: t.flags,
        sigmask: t.sigmask.load(Ordering::SeqCst),
        pending_signals: t.pending.load(Ordering::SeqCst),
        ctx_switches: t.ctx_switches.load(Ordering::Relaxed),
        cpu_ns: t.cpu_ns.load(Ordering::Relaxed),
    }
}

/// A snapshot of the library's thread table, ordered by id. The registry
/// is read one shard at a time, so a thread created or reaped meanwhile
/// may or may not appear.
///
/// "Threads are actually represented by data structures in the address
/// space of a program" — this reads them out, which is exactly what a
/// debugger attached via `/proc` would do with the library's cooperation.
pub fn threads_snapshot() -> Vec<ThreadInfo> {
    let mut out: Vec<ThreadInfo> = sched::mt().threads.all().iter().map(info_of).collect();
    out.sort_by_key(|t| t.id);
    out
}

/// Looks up one thread's info — a direct registry lookup, not a scan of
/// the full snapshot, so a debugger polling one thread doesn't pay O(n)
/// per probe.
pub fn thread_info(id: ThreadId) -> Option<ThreadInfo> {
    sched::mt().threads.get(id).as_ref().map(info_of)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{wait, ThreadBuilder};
    use std::sync::atomic::AtomicU32;
    use std::sync::Arc;

    #[test]
    fn snapshot_contains_a_created_thread_with_its_attributes() {
        let release = Arc::new(AtomicU32::new(0));
        let r = Arc::clone(&release);
        let id = ThreadBuilder::new()
            .flags(CreateFlags::WAIT)
            .spawn(move || {
                while r.load(Ordering::SeqCst) == 0 {
                    crate::yield_now();
                }
            })
            .expect("spawn");
        let info = thread_info(id).expect("created thread must be visible");
        assert_eq!(info.id, id);
        assert!(!info.bound);
        assert!(info.flags.contains(CreateFlags::WAIT));
        assert!(matches!(
            info.state,
            ThreadState::Runnable | ThreadState::Running | ThreadState::Sleeping
        ));
        release.store(1, Ordering::SeqCst);
        wait(Some(id)).expect("wait");
        // After reaping, the thread is gone from the table.
        assert!(thread_info(id).is_none());
    }

    #[test]
    fn stopped_thread_shows_stopped_state() {
        let id = ThreadBuilder::new()
            .flags(CreateFlags::WAIT | CreateFlags::STOP)
            .spawn(|| {})
            .expect("spawn");
        let info = thread_info(id).expect("visible");
        assert_eq!(info.state, ThreadState::Stopped);
        crate::cont(id).expect("continue");
        wait(Some(id)).expect("wait");
    }

    #[test]
    fn snapshot_is_ordered_by_id() {
        let snap = threads_snapshot();
        for w in snap.windows(2) {
            assert!(w[0].id < w[1].id);
        }
    }
}
