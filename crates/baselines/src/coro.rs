//! An N:1 coroutine package (SunOS 4.0 `liblwp` style).
//!
//! All coroutines share one host thread (one LWP). Switching is pure user
//! mode — the cheapest possible "thread" — but a blocking system call by
//! any coroutine stalls every coroutine, which is exactly the deficiency
//! the two-level architecture removes.

use std::cell::{Cell, RefCell, UnsafeCell};
use std::collections::VecDeque;
use std::rc::Rc;

use sunmt_context::arch::{self, MachContext};
use sunmt_context::stack::{Stack, DEFAULT_STACK_SIZE};
use sunmt_context::Continuation;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum CoroState {
    Ready,
    Running,
    Blocked,
    Done,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Action {
    Yield,
    Block,
    Done,
}

struct Slot {
    cont: Option<Continuation>,
    state: CoroState,
}

struct Inner {
    slots: Vec<Slot>,
    ready: VecDeque<usize>,
    current: Option<usize>,
    action: Action,
    sched_ctx: MachContext,
}

/// A single-LWP cooperative scheduler.
///
/// Not `Send`/`Sync`: everything runs on the creating host thread, which is
/// the definition of the N:1 model.
pub struct N1Scheduler {
    inner: UnsafeCell<Inner>,
    /// Keeps the type `!Send + !Sync`.
    _single: std::marker::PhantomData<*const ()>,
}

thread_local! {
    static CURRENT_SCHED: Cell<*const N1Scheduler> = const { Cell::new(std::ptr::null()) };
}

impl N1Scheduler {
    /// Creates an empty scheduler.
    pub fn new() -> Rc<N1Scheduler> {
        Rc::new(N1Scheduler {
            inner: UnsafeCell::new(Inner {
                slots: Vec::new(),
                ready: VecDeque::new(),
                current: None,
                action: Action::Yield,
                sched_ctx: MachContext::zeroed(),
            }),
            _single: std::marker::PhantomData,
        })
    }

    /// # Safety wrapper
    ///
    /// All access is single-threaded (the type is neither Send nor Sync)
    /// and callers never hold the reference across a context switch.
    #[allow(clippy::mut_from_ref)]
    fn inner(&self) -> &mut Inner {
        // SAFETY: Single-threaded by construction; every caller drops the
        // borrow before switching contexts.
        unsafe { &mut *self.inner.get() }
    }

    /// Adds a coroutine; it runs when [`Self::run`] drives the scheduler.
    ///
    /// Closures need not be `Send`: in the N:1 model nothing ever leaves
    /// the creating host thread.
    pub fn spawn<F>(&self, f: F) -> usize
    where
        F: FnOnce() + 'static,
    {
        // `Continuation` demands `Send` because the two-level library
        // migrates threads between LWPs; this scheduler never does (the
        // type is neither Send nor Sync), so the bound is vacuous here.
        struct AssertSend<F>(F);
        // SAFETY: The wrapped closure is only ever called on the host
        // thread that owns this !Send scheduler.
        unsafe impl<F> Send for AssertSend<F> {}
        let f = AssertSend(f);
        let stack = Stack::new(DEFAULT_STACK_SIZE).expect("coroutine stack");
        let cont = Continuation::new(
            stack,
            move || {
                // Capture the whole wrapper (edition-2021 disjoint capture
                // would otherwise grab the non-Send field directly).
                let f = f;
                (f.0)();
            },
            finish_current,
        );
        let inner = self.inner();
        inner.slots.push(Slot {
            cont: Some(cont),
            state: CoroState::Ready,
        });
        let idx = inner.slots.len() - 1;
        inner.ready.push_back(idx);
        idx
    }

    /// Runs until every coroutine has finished or everything blocks.
    /// Returns the number of coroutines still blocked (0 = clean finish).
    pub fn run(&self) -> usize {
        CURRENT_SCHED.with(|c| c.set(self as *const N1Scheduler));
        loop {
            let next = { self.inner().ready.pop_front() };
            let Some(idx) = next else { break };
            {
                let inner = self.inner();
                inner.current = Some(idx);
                inner.slots[idx].state = CoroState::Running;
            }
            let (cont_ptr, sched_ctx) = {
                let inner = self.inner();
                (
                    inner.slots[idx].cont.as_mut().expect("live coroutine") as *mut Continuation,
                    &mut inner.sched_ctx as *mut MachContext,
                )
            };
            // SAFETY: The coroutine is suspended and owned by this (single)
            // scheduler; sched_ctx outlives the switch.
            unsafe { (*cont_ptr).resume(&mut *sched_ctx) };
            let inner = self.inner();
            let idx = inner.current.take().expect("lost current coroutine");
            match inner.action {
                Action::Yield => {
                    inner.slots[idx].state = CoroState::Ready;
                    inner.ready.push_back(idx);
                }
                Action::Block => {
                    inner.slots[idx].state = CoroState::Blocked;
                }
                Action::Done => {
                    inner.slots[idx].state = CoroState::Done;
                    // Reclaim the stack.
                    if let Some(cont) = inner.slots[idx].cont.take() {
                        // SAFETY: The coroutine ran to completion.
                        drop(unsafe { cont.into_stack() });
                    }
                }
            }
        }
        CURRENT_SCHED.with(|c| c.set(std::ptr::null()));
        let inner = self.inner();
        inner
            .slots
            .iter()
            .filter(|s| s.state == CoroState::Blocked)
            .count()
    }

    fn switch_out(&self, action: Action) {
        let (cur_ctx, sched_ctx) = {
            let inner = self.inner();
            inner.action = action;
            let idx = inner.current.expect("switch_out outside a coroutine");
            (
                inner.slots[idx]
                    .cont
                    .as_mut()
                    .expect("live coroutine")
                    .context_ptr(),
                &inner.sched_ctx as *const MachContext,
            )
        };
        // SAFETY: cur_ctx is this coroutine's own save slot; sched_ctx was
        // saved by the resume that dispatched us, on this same host thread.
        unsafe { arch::switch_context(cur_ctx, sched_ctx) };
    }

    fn unblock(&self, idx: usize) {
        let inner = self.inner();
        if inner.slots[idx].state == CoroState::Blocked {
            inner.slots[idx].state = CoroState::Ready;
            inner.ready.push_back(idx);
        }
    }

    fn current_idx(&self) -> usize {
        self.inner().current.expect("not inside a coroutine")
    }
}

fn sched() -> &'static N1Scheduler {
    let p = CURRENT_SCHED.with(|c| c.get());
    assert!(!p.is_null(), "not inside an N1Scheduler::run");
    // SAFETY: run() keeps the scheduler alive for the whole drive loop and
    // clears the TLS pointer before returning.
    unsafe { &*p }
}

/// Yields the current coroutine to the next ready one.
pub fn yield_now() {
    sched().switch_out(Action::Yield);
}

/// A coroutine's exit hook: its closure has returned and been dropped.
fn finish_current() -> ! {
    sched().switch_out(Action::Done);
    unreachable!("finished coroutine was resumed");
}

/// A counting semaphore between coroutines of one scheduler — the
/// `liblwp`-style synchronization used by the Figure 6-shaped baseline
/// measurements.
pub struct N1Sema {
    count: Cell<u32>,
    waiters: RefCell<VecDeque<usize>>,
}

impl N1Sema {
    /// A semaphore with the given initial count.
    pub fn new(count: u32) -> Rc<N1Sema> {
        Rc::new(N1Sema {
            count: Cell::new(count),
            waiters: RefCell::new(VecDeque::new()),
        })
    }

    /// P: decrement, blocking the calling coroutine while zero.
    pub fn p(&self) {
        loop {
            let c = self.count.get();
            if c > 0 {
                self.count.set(c - 1);
                return;
            }
            let s = sched();
            self.waiters.borrow_mut().push_back(s.current_idx());
            s.switch_out(Action::Block);
        }
    }

    /// V: increment, waking one blocked coroutine.
    pub fn v(&self) {
        let waiter = self.waiters.borrow_mut().pop_front();
        self.count.set(self.count.get() + 1);
        if let Some(w) = waiter {
            sched().unblock(w);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn coroutines_run_to_completion() {
        let s = N1Scheduler::new();
        let hits = Arc::new(AtomicUsize::new(0));
        for _ in 0..10 {
            let h = Arc::clone(&hits);
            s.spawn(move || {
                h.fetch_add(1, Ordering::SeqCst);
            });
        }
        assert_eq!(s.run(), 0);
        assert_eq!(hits.load(Ordering::SeqCst), 10);
    }

    #[test]
    fn yield_interleaves_coroutines() {
        let s = N1Scheduler::new();
        let log = Arc::new(std::sync::Mutex::new(Vec::new()));
        for id in 0..2 {
            let log = Arc::clone(&log);
            s.spawn(move || {
                for step in 0..3 {
                    log.lock().unwrap().push((id, step));
                    yield_now();
                }
            });
        }
        s.run();
        let log = log.lock().unwrap();
        // Round-robin: 0,1 alternate at each step.
        assert_eq!(*log, vec![(0, 0), (1, 0), (0, 1), (1, 1), (0, 2), (1, 2)]);
    }

    #[test]
    fn sema_ping_pong() {
        let s = N1Scheduler::new();
        let s1 = N1Sema::new(0);
        let s2 = N1Sema::new(0);
        let (a1, a2) = (Rc::clone(&s1), Rc::clone(&s2));
        let count = Arc::new(AtomicUsize::new(0));
        let c2 = Arc::clone(&count);
        s.spawn(move || {
            for _ in 0..100 {
                a1.p();
                a2.v();
            }
        });
        s.spawn(move || {
            for _ in 0..100 {
                s1.v();
                s2.p();
                c2.fetch_add(1, Ordering::SeqCst);
            }
        });
        assert_eq!(s.run(), 0, "ping-pong must not deadlock");
        assert_eq!(count.load(Ordering::SeqCst), 100);
    }

    #[test]
    fn blocked_coroutines_are_reported() {
        let s = N1Scheduler::new();
        let sema = N1Sema::new(0);
        let sm = Rc::clone(&sema);
        s.spawn(move || {
            sm.p(); // Never V'd: stays blocked.
        });
        assert_eq!(s.run(), 1, "one coroutine must remain blocked");
    }
}
