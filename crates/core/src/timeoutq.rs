//! Deadlines for user-level sleeps.
//!
//! A *kernel* timed block is one futex operation (`FUTEX_WAIT` with a
//! timeout). A *user-level* sleep has no kernel timer attached — the thread
//! is just an entry in the process's sleep table — so the library keeps its
//! own deadline heaps, serviced by one dedicated timer LWP. The heaps are
//! sharded by the same address hash as the sleep queues ([`crate::sleepq`]),
//! so registering a deadline contends only with other sleeps on the same
//! shard, never with the whole process. The timer LWP sleeps in the kernel
//! until the earliest registered deadline (or until a new, earlier deadline
//! is registered) and, on expiry, pulls the thread off its sleep queue and
//! makes it runnable again, exactly as `cv_timedwait` needs. This mirrors
//! the paper's division of labor: threads facilities stay in user space,
//! with one LWP standing in for the kernel's timeout machinery.
//!
//! The same LWP is the preemption clock. Under `SUNMT_PREEMPT=timer` it
//! also keeps one periodic deadline, every [`crate::sched::QUANTUM`], and
//! on each one raises every LWP's preempt flag
//! ([`sunmt_lwp::raise_preempt_all`]) — the stand-in for the kernel's
//! per-LWP `SIGVTALRM` interval timer.

use core::time::Duration;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock, Weak};

use sunmt_lwp::Lwp;
use sunmt_sys::futex::{self, Scope};
use sunmt_sys::time::monotonic_now;

use crate::runq::unpoisoned;
use crate::sleepq::{shard_of, SLEEPQ_SHARDS};
use crate::thread::Thread;

/// One armed deadline: wake `thread` (sleeping on `addr`) at `deadline`.
struct Entry {
    /// Absolute deadline on the monotonic clock.
    deadline: Duration,
    /// Registration order; breaks deadline ties deterministically (FIFO).
    seq: u64,
    /// The wait word the thread went to sleep on.
    addr: usize,
    /// The thread's sleep number for that sleep (`Thread::sleep_seq`).
    sleep: u64,
    /// The sleeper; weak so an exited thread never lingers in the heap.
    thread: Weak<Thread>,
}

impl Entry {
    /// Whether this deadline can no longer end a sleep: its thread is gone,
    /// or has begun a later sleep. `sleep_seq` only grows, so a stale entry
    /// stays stale; [`crate::sched::timeout_wakeup`] would find it a no-op.
    fn is_stale(&self) -> bool {
        self.thread
            .upgrade()
            .is_none_or(|t| t.sleep_seq.load(Ordering::Relaxed) != self.sleep)
    }
}

/// Pops the stale entries off the top of one shard's heap, so an early
/// wake does not leave its deadline behind to hold memory and to plan
/// timer wakes that cannot fire. Only the top is examined: a live entry
/// there stops the purge, and the deadlines below it get their turn when
/// they reach the top.
fn purge_top(heap: &mut BinaryHeap<Reverse<Entry>>) {
    while heap.peek().is_some_and(|Reverse(e)| e.is_stale()) {
        heap.pop();
    }
}

impl PartialEq for Entry {
    fn eq(&self, other: &Entry) -> bool {
        self.deadline == other.deadline && self.seq == other.seq
    }
}
impl Eq for Entry {}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Entry) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Entry {
    fn cmp(&self, other: &Entry) -> std::cmp::Ordering {
        (self.deadline, self.seq).cmp(&(other.deadline, other.seq))
    }
}

/// Sentinel for "no deadline armed" in the earliest-deadline cache.
const NO_DEADLINE: u64 = u64::MAX;

struct TimeoutQueue {
    /// Min-heaps of armed deadlines, one per sleep-queue shard.
    shards: Box<[Mutex<BinaryHeap<Reverse<Entry>>>]>,
    /// Generation word the timer LWP futex-waits on; bumped (with a wake)
    /// whenever a registration makes the earliest deadline earlier.
    generation: AtomicU32,
    next_seq: AtomicU64,
    /// The timer LWP's currently planned wakeup, as nanoseconds on the
    /// monotonic clock ([`NO_DEADLINE`] = sleeping indefinitely). A
    /// registration `fetch_min`s its own deadline in and kicks the timer
    /// only when it actually lowered the plan, so unrelated registrations
    /// cost no syscall.
    earliest_ns: AtomicU64,
}

static QUEUE: OnceLock<&'static TimeoutQueue> = OnceLock::new();

/// The queue singleton; first use spawns the timer LWP.
fn queue() -> &'static TimeoutQueue {
    QUEUE.get_or_init(|| {
        let q: &'static TimeoutQueue = Box::leak(Box::new(TimeoutQueue {
            shards: (0..SLEEPQ_SHARDS)
                .map(|_| Mutex::new(BinaryHeap::new()))
                .collect(),
            generation: AtomicU32::new(0),
            next_seq: AtomicU64::new(0),
            earliest_ns: AtomicU64::new(NO_DEADLINE),
        }));
        let lwp = Lwp::spawn_named("sunmt-timer".to_string(), move || timer_loop(q))
            .expect("failed to spawn the timer LWP");
        drop(lwp); // Detached; it serves the whole process lifetime.
        q
    })
}

/// Spawns the timer LWP if it is not running yet, so the preemption tick
/// starts before the first user-level sleep would have started it.
pub(crate) fn start() {
    queue();
}

fn ns_of(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(NO_DEADLINE - 1)
}

/// Arms a deadline for a thread that just committed a user-level sleep on
/// `addr`. Called by the dispatcher after the sleep-table insert; the weak
/// reference keeps an early wake (or thread exit) from pinning the thread.
pub(crate) fn register(deadline: Duration, addr: usize, sleep: u64, thread: Weak<Thread>) {
    let q = queue();
    let seq = q.next_seq.fetch_add(1, Ordering::Relaxed);
    {
        let mut heap = unpoisoned(&q.shards[shard_of(addr)]);
        purge_top(&mut heap);
        heap.push(Reverse(Entry {
            deadline,
            seq,
            addr,
            sleep,
            thread,
        }));
    }
    // Publish after the push: once the timer observes the lowered plan (or
    // the generation bump), a shard scan is guaranteed to find the entry.
    let ns = ns_of(deadline);
    let prev = q.earliest_ns.fetch_min(ns, Ordering::SeqCst);
    if ns < prev {
        // The timer LWP may be sleeping until a later deadline (or forever);
        // bump the generation so its wait returns and it re-plans.
        q.generation.fetch_add(1, Ordering::SeqCst);
        let _ = futex::wake(&q.generation, 1, Scope::Private);
    }
}

/// Deadlines currently held in the heaps (the `"sched"` stat source's
/// `timeouts_armed`); 0 before the first timed sleep.
pub(crate) fn armed() -> usize {
    QUEUE
        .get()
        .map_or(0, |q| q.shards.iter().map(|h| unpoisoned(h).len()).sum())
}

fn timer_loop(q: &'static TimeoutQueue) {
    let mut next_tick =
        crate::sched::preempt_ticks().then(|| monotonic_now() + crate::sched::QUANTUM);
    loop {
        // Sample the generation *before* touching the heaps: a registration
        // that lands mid-scan bumps it, and the wait below then returns
        // immediately instead of oversleeping.
        let generation = q.generation.load(Ordering::SeqCst);
        // Reset the plan before scanning, so every registration during the
        // scan sees `NO_DEADLINE` (or our merged value) and kicks us if the
        // scan might have missed its shard.
        q.earliest_ns.store(NO_DEADLINE, Ordering::SeqCst);
        let now = monotonic_now();
        if let Some(at) = next_tick.as_mut().filter(|at| **at <= now) {
            sunmt_lwp::raise_preempt_all();
            *at = now + crate::sched::QUANTUM;
        }
        let mut due = Vec::new();
        // The next tick, if any, is one more deadline to plan for.
        let mut next: Option<Duration> = next_tick;
        for shard in q.shards.iter() {
            let mut heap = unpoisoned(shard);
            purge_top(&mut heap);
            while heap.peek().is_some_and(|Reverse(e)| e.deadline <= now) {
                due.push(heap.pop().expect("peeked entry vanished").0);
                purge_top(&mut heap);
            }
            if let Some(Reverse(e)) = heap.peek() {
                if next.is_none_or(|n| e.deadline < n) {
                    next = Some(e.deadline);
                }
            }
        }
        for e in due {
            if let Some(t) = e.thread.upgrade() {
                crate::sched::timeout_wakeup(e.addr, e.sleep, t);
            }
        }
        // Merge our scan result into the plan; concurrent registrations may
        // already have lowered it further, which `fetch_min` preserves.
        let scan_ns = next.map_or(NO_DEADLINE, ns_of);
        let prev = q.earliest_ns.fetch_min(scan_ns, Ordering::SeqCst);
        let plan_ns = scan_ns.min(prev);
        if plan_ns == NO_DEADLINE {
            let _ = futex::wait(&q.generation, generation, Scope::Private);
        } else {
            let timeout = Duration::from_nanos(plan_ns).saturating_sub(now);
            let _ = futex::wait_timeout(&q.generation, generation, Scope::Private, timeout);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entries_order_by_deadline_then_seq() {
        let mk = |ms: u64, seq: u64| Entry {
            deadline: Duration::from_millis(ms),
            seq,
            addr: 0,
            sleep: 0,
            thread: Weak::new(),
        };
        assert!(mk(1, 9) < mk(2, 0));
        assert!(mk(5, 1) < mk(5, 2));
        let mut heap = BinaryHeap::new();
        heap.push(Reverse(mk(30, 0)));
        heap.push(Reverse(mk(10, 1)));
        heap.push(Reverse(mk(20, 2)));
        let order: Vec<u64> = std::iter::from_fn(|| heap.pop())
            .map(|Reverse(e)| e.deadline.as_millis() as u64)
            .collect();
        assert_eq!(order, vec![10, 20, 30]);
    }
}
