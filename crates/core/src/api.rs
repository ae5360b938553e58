//! The thread-management half of the paper's Figure 4, under its original
//! names.
//!
//! `thread_create(stack_addr, stack_size, func, arg, flags)` and friends,
//! transliterated: the C `(func, arg)` pair becomes a closure, `NULL`
//! thread ids become `Option`, and status codes become `Result`. The
//! synchronization names (`mutex_enter`, `sema_p`, ...) are re-exported
//! from `sunmt_sync::api` so one `use sunmt::api::*` covers the whole
//! figure.

pub use sunmt_sync::api::*;

use crate::signals;
use crate::thread;
use crate::types::{CreateFlags, Result, ThreadId};

/// `thread_create(NULL, 0, func, arg, flags)`: default stack.
pub fn thread_create<F>(flags: CreateFlags, func: F) -> Result<ThreadId>
where
    F: FnOnce() + Send + 'static,
{
    thread::ThreadBuilder::new().flags(flags).spawn(func)
}

/// `thread_create(NULL, stack_size, func, arg, flags)`: sized stack.
pub fn thread_create_sized<F>(stack_size: usize, flags: CreateFlags, func: F) -> Result<ThreadId>
where
    F: FnOnce() + Send + 'static,
{
    thread::ThreadBuilder::new()
        .flags(flags)
        .stack_size(stack_size)
        .spawn(func)
}

/// `thread_create(stack_addr, stack_size, func, arg, flags)`: programmer-
/// supplied stack.
///
/// # Safety
///
/// See [`thread::ThreadBuilder::spawn_on_stack`].
pub unsafe fn thread_create_on_stack<F>(
    stack_addr: *mut u8,
    stack_size: usize,
    flags: CreateFlags,
    func: F,
) -> Result<ThreadId>
where
    F: FnOnce() + Send + 'static,
{
    // SAFETY: Forwarded from the caller.
    unsafe {
        thread::ThreadBuilder::new()
            .flags(flags)
            .spawn_on_stack(stack_addr, stack_size, func)
    }
}

/// `thread_exit()`.
pub fn thread_exit() -> ! {
    thread::exit()
}

/// `thread_wait(thread_id)`; pass `None` for the paper's NULL ("any thread
/// marked THREAD_WAIT").
pub fn thread_wait(thread_id: Option<ThreadId>) -> Result<ThreadId> {
    thread::wait(thread_id)
}

/// `thread_get_id()`.
pub fn thread_get_id() -> ThreadId {
    thread::get_id()
}

/// `thread_sigsetmask(how, set, oset)`: returns the old mask.
pub fn thread_sigsetmask(how: signals::MaskHow, set: u64) -> u64 {
    signals::thread_sigsetmask(how, set)
}

/// `thread_kill(thread_id, sig)`.
pub fn thread_kill(thread_id: ThreadId, sig: signals::SigNo) -> Result<()> {
    signals::thread_kill(thread_id, sig)
}

/// `thread_stop(thread_id)`; `None` stops the calling thread.
pub fn thread_stop(thread_id: Option<ThreadId>) -> Result<()> {
    thread::stop(thread_id)
}

/// `thread_continue(thread_id)`.
pub fn thread_continue(thread_id: ThreadId) -> Result<()> {
    thread::cont(thread_id)
}

/// `thread_priority(thread_id, priority)`: returns the old priority;
/// `None` targets the calling thread.
pub fn thread_priority(thread_id: Option<ThreadId>, priority: i32) -> Result<i32> {
    thread::set_priority(thread_id, priority)
}

/// `thread_setconcurrency(n)`.
pub fn thread_setconcurrency(n: usize) -> Result<()> {
    thread::set_concurrency(n)
}

/// A preemption safepoint for compute loops.
///
/// Where the paper's kernel delivers `SIGVTALRM` asynchronously, this
/// library polls: with `SUNMT_PREEMPT=timer` the timer LWP raises every
/// LWP's preempt flag once per 10 ms quantum, and every scheduling point
/// doubles as a check of that flag, so code that regularly calls into the
/// library is preempted transparently. A loop that computes without ever
/// entering the library keeps its LWP — the same substrate limitation
/// already documented for `thread_stop` — unless it drops this call in,
/// which costs one relaxed load when no tick is pending.
pub fn thread_preempt_point() {
    crate::sched::preempt_check();
}
