//! A prepared thread context owning its stack and entry closure.

use crate::arch::{self, MachContext};
use crate::stack::Stack;

type Payload = Box<dyn FnOnce() + Send + 'static>;

/// What the trampoline receives: the entry closure and the exit hook it
/// calls once the closure has returned and both boxes are freed.
struct Entry {
    f: Payload,
    exit: fn() -> !,
}

/// A suspended thread of control: a stack, the machine context saved in
/// process memory (the "thread state" box of the paper's Figure 2), and —
/// until first resumed — the entry closure.
///
/// `Continuation` is the building block shared by the threads library and
/// the baseline packages: each user-level thread is a `Continuation` plus
/// scheduling state.
pub struct Continuation {
    ctx: MachContext,
    stack: Stack,
    /// Entry closure and exit hook, still owned by us until the first
    /// resume consumes them. A raw pointer because its address is baked
    /// into the prepared context.
    pending: *mut Entry,
}

// SAFETY: The stack and context are exclusively owned, and the payload
// closure is required to be Send, so the whole continuation may migrate
// between LWPs (that is the point of unbound threads).
unsafe impl Send for Continuation {}

impl Continuation {
    /// Prepares `f` to run on `stack` when first resumed.
    ///
    /// When `f` returns, the trampoline drops everything it owned — the
    /// closure and the boxes that carried it — and then calls `exit`, which
    /// must leave the stack by context-switching away forever (the threads
    /// library's exit switch to its dispatcher). A thread therefore exits
    /// by returning, and nothing it allocated is stranded on a stack that
    /// is never unwound.
    pub fn new<F>(stack: Stack, f: F, exit: fn() -> !) -> Continuation
    where
        F: FnOnce() + Send + 'static,
    {
        let pending: *mut Entry = Box::into_raw(Box::new(Entry {
            f: Box::new(f),
            exit,
        }));
        // SAFETY: `stack.top()` is the high end of a live writable mapping,
        // and `cont_entry` never returns.
        let ctx = unsafe { arch::prepare(stack.top(), cont_entry, pending as usize) };
        Continuation {
            ctx,
            stack,
            pending,
        }
    }

    /// Suspends the caller into `save` and resumes this continuation.
    ///
    /// Returns when some other context switches back into `save`.
    ///
    /// # Safety
    ///
    /// * This continuation must be suspended (not currently running on any
    ///   LWP), and no other LWP may resume it concurrently.
    /// * `save` must remain valid until control returns to it.
    /// * The continuation must not be dropped while its closure is still
    ///   running on its stack.
    pub unsafe fn resume(&mut self, save: &mut MachContext) {
        if !self.pending.is_null() {
            // The first resume hands the closure to the trampoline.
            self.pending = core::ptr::null_mut();
        }
        // SAFETY: Upheld by the caller; `self.ctx` is either the freshly
        // prepared context or one saved by a previous switch out.
        unsafe { arch::switch_context(save, &self.ctx) };
    }

    /// The context slot this continuation suspends into; the scheduler
    /// passes it as the *save* side when switching away from this thread.
    pub fn context_mut(&mut self) -> &mut MachContext {
        &mut self.ctx
    }

    /// A raw pointer to the context slot, for schedulers that must name the
    /// save and load sides of one switch simultaneously.
    pub fn context_ptr(&mut self) -> *mut MachContext {
        &mut self.ctx
    }

    /// The stack backing this continuation.
    pub fn stack(&self) -> &Stack {
        &self.stack
    }

    /// Consumes the continuation and returns its stack for reuse.
    ///
    /// # Safety
    ///
    /// The continuation's closure must have finished (the thread exited) or
    /// never started, and nothing may ever resume this context again.
    pub unsafe fn into_stack(mut self) -> Stack {
        self.reclaim_pending();
        // Move the stack out without running Drop twice.
        let this = core::mem::ManuallyDrop::new(self);
        // SAFETY: `this` is never used again; the stack is read exactly once.
        unsafe { core::ptr::read(&this.stack) }
    }

    fn reclaim_pending(&mut self) {
        if !self.pending.is_null() {
            // SAFETY: The closure was never handed to the trampoline, so we
            // still own the box.
            drop(unsafe { Box::from_raw(self.pending) });
            self.pending = core::ptr::null_mut();
        }
    }
}

impl Drop for Continuation {
    fn drop(&mut self) {
        self.reclaim_pending();
    }
}

impl core::fmt::Debug for Continuation {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Continuation")
            .field("started", &self.pending.is_null())
            .field("stack_top", &self.stack.top())
            .finish()
    }
}

extern "C" fn cont_entry(arg: usize) -> ! {
    let exit = {
        // SAFETY: `arg` is the Box::into_raw pointer from `new`, handed to
        // exactly one first resume.
        let Entry { f, exit } = *unsafe { Box::from_raw(arg as *mut Entry) };
        // Calling the boxed closure consumes and frees it; the outer box
        // was freed by the move above.
        f();
        exit
    };
    exit()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::sync::Arc;

    use std::cell::Cell;

    thread_local! {
        // The exit hook takes no arguments, so each test leaves it the
        // switch it should make: (this thread's save slot, main's context).
        static BACK: Cell<(*mut MachContext, *const MachContext)> =
            const { Cell::new((core::ptr::null_mut(), core::ptr::null())) };
    }

    fn switch_back() -> ! {
        let (save, main) = BACK.with(Cell::get);
        // SAFETY: The test set both pointers before resuming; `main` was
        // saved by that resume on this host thread.
        unsafe { arch::switch_context(save, main) };
        unreachable!("an exited continuation was resumed");
    }

    fn never_resumed() -> ! {
        unreachable!("an unstarted continuation ran its exit hook");
    }

    #[test]
    fn dropped_unstarted_continuation_frees_closure() {
        let flag = Arc::new(AtomicU32::new(0));
        let f2 = Arc::clone(&flag);
        let cont = Continuation::new(
            Stack::new(32 * 1024).unwrap(),
            move || {
                f2.store(1, Ordering::SeqCst);
            },
            never_resumed,
        );
        drop(cont);
        assert_eq!(flag.load(Ordering::SeqCst), 0, "closure must not run");
        assert_eq!(Arc::strong_count(&flag), 1, "captured Arc must be freed");
    }

    #[test]
    fn closure_returns_and_is_freed_before_the_exit_hook() {
        let log: Arc<AtomicU32> = Arc::new(AtomicU32::new(0));
        let log2 = Arc::clone(&log);
        let mut main = MachContext::zeroed();
        let mut cont = Continuation::new(
            Stack::new(64 * 1024).unwrap(),
            move || log2.store(7, Ordering::SeqCst),
            switch_back,
        );
        BACK.with(|b| b.set((cont.context_ptr(), &main)));
        // SAFETY: Continuation is fresh; `main` lives across the switch.
        unsafe { cont.resume(&mut main) };
        assert_eq!(log.load(Ordering::SeqCst), 7);
        assert_eq!(
            Arc::strong_count(&log),
            1,
            "the closure's captures must be dropped before the exit hook runs"
        );
        // SAFETY: The closure finished and the hook switched away for good.
        drop(unsafe { cont.into_stack() });
    }
}
