//! Per-LWP magazines of retired thread objects and cached stacks.
//!
//! Figure 5's unbound-create number is dominated by the two allocations a
//! create must make: a stack and a thread structure. In steady state —
//! create, run, exit, repeat — both were just freed by an exit on the same
//! LWP, so each pool LWP keeps a small *magazine* of them in thread-local
//! storage. A steady-state `thread_create`/`thread_exit` pair then touches
//! no lock, maps no memory and allocates nothing: it pops a warm stack and
//! a retired [`Thread`] from the magazine, re-initializes the latter in
//! place, and the matching exit pushes both back. That holds only while a
//! magazine covers the LWP's create/exit working set — for a fork/join,
//! every child its forkers keep in flight (Bonwick & Adams, "Magazines and
//! Vmem", USENIX 2001) — so [`MAG_CAP`] is sized for that set, and the
//! scheduler keeps a busy LWP's threads on it (the run queue's fairness
//! tick steals only from a stalled shard) so they retire where they were
//! made.
//!
//! Magazines overflow and refill a batch at a time against the global
//! depots (the [`StackCache`] for stacks, `Mt::thread_depot` for thread
//! objects), so the depot locks are paid once per [`MAG_BATCH`] operations
//! rather than once per create. Neither exchange advises memory: stacks
//! that stay cold in the *depot* for a trim period have their pages handed
//! back to the kernel (`MADV_FREE`) by an LWP with nothing to run
//! ([`StackCache::trim`]).

use std::cell::RefCell;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use sunmt_context::stack::{Stack, StackCache, DEFAULT_STACK_SIZE};
use sunmt_trace::gauge::{self, Gauge};
use sunmt_trace::{probe, Tag};

use crate::runq::unpoisoned;
use crate::sched::Mt;
use crate::thread::Thread;

/// Magazine capacity per resource. A magazine pays only while it covers
/// the working set it serves: a fork/join keeps its children in flight, so
/// an LWP running two forkers of 32 children each retires 64 of them
/// between creates, and a smaller magazine overflows to the depot and
/// refills from it every few children. Every cached stack pins up to
/// 128 KiB, but only stacks that an exit already left here: an idle LWP
/// holds what its last burst left, not more.
const MAG_CAP: usize = 64;

/// How many objects move between a magazine and its depot on an overflow
/// drain or an empty refill. Small against [`MAG_CAP`], so a magazine that
/// overflowed keeps most of its working set and one that refilled does
/// not drain the depot other LWPs refill from.
const MAG_BATCH: usize = 8;

#[derive(Default)]
struct Magazine {
    stacks: Vec<Stack>,
    threads: Vec<Arc<Thread>>,
}

thread_local! {
    /// One magazine per host thread; on a pool LWP this is the per-LWP
    /// cache. Unbound threads reach it through whichever LWP runs them —
    /// which is exactly the locality we want.
    static MAGAZINE: RefCell<Magazine> = RefCell::new(Magazine::default());
}

/// Takes a default-sized stack: magazine first, then a batch refill from
/// the depot, then (cold path) a fresh mapping.
pub(crate) fn take_stack(depot: &StackCache) -> Result<Stack, sunmt_sys::Errno> {
    let cached = MAGAZINE.with(|m| {
        let mut m = m.borrow_mut();
        m.stacks.pop().or_else(|| {
            m.stacks = depot.take_batch(MAG_BATCH);
            m.stacks.pop()
        })
    });
    match cached {
        Some(s) => {
            gauge::inc(Gauge::MagazineHits);
            probe!(Tag::MagazineHit, 0u32, 1u32);
            Ok(s)
        }
        None => {
            gauge::inc(Gauge::MagazineMisses);
            probe!(Tag::MagazineMiss, 0u32, 1u32);
            Stack::new(DEFAULT_STACK_SIZE)
        }
    }
}

/// Returns an exited thread's stack. Default-sized library stacks go into
/// the magazine (draining the coldest batch to the depot on overflow, or
/// early while creators find the depot short); anything else goes
/// straight to the depot, which unmaps or releases it.
pub(crate) fn put_stack(depot: &StackCache, stack: Stack) {
    if !stack.is_owned() || stack.usable() != DEFAULT_STACK_SIZE {
        depot.put(stack);
        return;
    }
    let overflow = MAGAZINE.with(|m| {
        let mut m = m.borrow_mut();
        m.stacks.push(stack);
        if m.stacks.len() > MAG_CAP || (m.stacks.len() > MAG_BATCH && depot.wanted()) {
            Some(m.stacks.drain(..MAG_BATCH).collect::<Vec<Stack>>())
        } else {
            None
        }
    });
    if let Some(batch) = overflow {
        depot.put_batch(batch);
    }
}

/// Takes a retired thread object for reuse, or `None` if neither the
/// magazine nor the depot has one (caller allocates fresh).
///
/// The returned `Arc` is verified sole-owned — no other strong or weak
/// reference exists — so the caller's `Arc::get_mut` + `reinit` cannot
/// fail. Candidates that still carry a transient reference (see
/// [`retire_thread`]) are simply dropped; the ordinary allocator reclaims
/// them.
pub(crate) fn take_thread(m: &Mt) -> Option<Arc<Thread>> {
    MAGAZINE.with(|mag| {
        let mut mag = mag.borrow_mut();
        loop {
            if mag.threads.is_empty() {
                let mut depot = unpoisoned(&m.thread_depot);
                let k = MAG_BATCH.min(depot.len());
                if k == 0 {
                    return None;
                }
                let at = depot.len() - k;
                mag.threads.extend(depot.split_off(at));
            }
            while let Some(mut t) = mag.threads.pop() {
                if Arc::get_mut(&mut t).is_some() {
                    return Some(t);
                }
            }
        }
    })
}

/// Parks an exited unbound thread's object for reuse by a later create.
///
/// The caller (a reap path) may still hold its own transient `Arc` when it
/// stashes the clone, so sole ownership is *not* required here — the take
/// side re-verifies it. Threads a stopper is still waiting on are never
/// recycled: their `stop_event` has an unmatched registration.
pub(crate) fn retire_thread(m: &Mt, t: Arc<Thread>) {
    if t.bound || t.stop_waiters.load(Ordering::SeqCst) != 0 {
        return;
    }
    let overflow = MAGAZINE.with(|mag| {
        let mut mag = mag.borrow_mut();
        mag.threads.push(t);
        if mag.threads.len() > MAG_CAP {
            Some(mag.threads.drain(..MAG_BATCH).collect::<Vec<Arc<Thread>>>())
        } else {
            None
        }
    });
    if let Some(batch) = overflow {
        unpoisoned(&m.thread_depot).extend(batch);
    }
}
