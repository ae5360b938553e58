//! The run queues of unbound threads.
//!
//! The paper's Figure 2 shows one global priority run queue; the first cut
//! of this library reproduced that literally as a single `Mutex<RunQueue>`,
//! which serialized every create, wakeup and dispatch in the process. This
//! module keeps that multilevel queue as the building block ([`RunQueue`])
//! and composes the production dispatcher's structure from it
//! ([`ShardedRunQueue`]): one lightly-locked shard per LWP, priority-aware
//! work stealing between shards, and a small global *injection* queue for
//! wakeups arriving from contexts that have no shard (bound threads, the
//! timer LWP, signal handlers) and for shard overflow.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicI32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use sunmt_trace::{probe, Tag};

/// Number of distinct priority levels the dispatcher distinguishes.
///
/// Priorities are clamped into `0..LEVELS`; "increasing the specified
/// priority gives increasing scheduling priority".
pub const LEVELS: usize = 64;

/// Soft per-shard capacity: a push finding its shard at this depth spills to
/// the injection queue instead, so one producer-heavy LWP cannot hoard an
/// unbounded backlog that only stealing (one item per trip) can drain.
pub const SHARD_CAP: usize = 256;

/// Pop fairness interval: every Nth pop on a shard services the injection
/// queue, and failing that steals from a *stalled* shard, *before* the
/// shard's own queue. Without this, an owner whose shard never empties —
/// e.g. one thread in a yield loop, re-queued to its own shard on every
/// dispatch — would starve injected wakeups and orphaned shards forever.
/// With it, injected work is delayed by at most `FAIR_EVERY - 1`
/// dispatches, and work on a shard whose owner stopped popping (it sits in
/// a `blocking()` region, or is gone) by at most two such rounds. A shard
/// whose owner keeps popping is not stolen from here: its work stays with
/// the LWP whose magazines and caches already hold it.
pub const FAIR_EVERY: usize = 61;

/// Locks `m`, ignoring poison.
///
/// Run-queue and scheduler state is kept consistent by short critical
/// sections that do not call user code, so a panic while holding one of
/// these locks cannot leave the structure half-updated in a way later
/// operations would trip over — but `Mutex` poisoning would still wedge
/// every *other* LWP's dispatch path forever. Every `std::sync::Mutex` in
/// this crate (run queues, sleep queues, the thread registry, zombie list,
/// handler table and TLS layout) is locked through this accessor.
pub fn unpoisoned<T: ?Sized>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Something a run queue can hold: anything with a scheduling priority, an
/// identity, and a trace id.
///
/// The scheduler instantiates the queues with `Arc<Thread>`; benches and
/// tests use plain `(priority, id)` pairs so the queue structure can be
/// measured without building thread objects.
pub trait RunItem {
    /// Scheduling priority; higher runs first (clamped into `0..LEVELS`).
    fn priority(&self) -> i32;
    /// Whether `self` and `other` are the same queued entity (used by
    /// removal; pointer identity for `Arc`ed threads).
    fn same(&self, other: &Self) -> bool;
    /// Identity reported by the `Runq*` trace probes.
    fn trace_id(&self) -> u64;
}

impl RunItem for std::sync::Arc<crate::thread::Thread> {
    fn priority(&self) -> i32 {
        // Queued at the *effective* (decay-adjusted) priority, so a hog
        // that was preempted re-queues below the threads it starved. UFCS:
        // plain `self.priority()` would resolve back to this trait method
        // on the `Arc` itself.
        crate::thread::Thread::effective_priority(self.as_ref())
    }
    fn same(&self, other: &Self) -> bool {
        std::sync::Arc::ptr_eq(self, other)
    }
    fn trace_id(&self) -> u64 {
        self.id.0 as u64
    }
}

/// Plain `(priority, id)` pairs as run items, for benches and tests.
impl RunItem for (i32, u64) {
    fn priority(&self) -> i32 {
        self.0
    }
    fn same(&self, other: &Self) -> bool {
        self == other
    }
    fn trace_id(&self) -> u64 {
        self.1
    }
}

/// A priority-indexed multilevel queue with an occupancy bitmap.
///
/// Pop returns the oldest item of the highest occupied level — the dispatch
/// rule the paper's threads package uses for unbound threads.
pub struct RunQueue<T> {
    levels: Vec<VecDeque<T>>,
    occupied: u64,
    len: usize,
}

impl<T: RunItem> RunQueue<T> {
    /// Creates an empty queue.
    pub fn new() -> RunQueue<T> {
        RunQueue {
            levels: (0..LEVELS).map(|_| VecDeque::new()).collect(),
            occupied: 0,
            len: 0,
        }
    }

    /// Clamps an arbitrary priority into a queue level.
    pub fn level_for(priority: i32) -> usize {
        priority.clamp(0, LEVELS as i32 - 1) as usize
    }

    /// Enqueues `t` at its current priority.
    pub fn push(&mut self, t: T) {
        let lvl = Self::level_for(t.priority());
        probe!(Tag::RunqPush, t.trace_id(), lvl);
        self.levels[lvl].push_back(t);
        self.occupied |= 1 << lvl;
        self.len += 1;
    }

    /// Dequeues the oldest item of the highest occupied priority.
    pub fn pop(&mut self) -> Option<T> {
        if self.occupied == 0 {
            return None;
        }
        let lvl = 63 - self.occupied.leading_zeros() as usize;
        let q = &mut self.levels[lvl];
        let t = q.pop_front().expect("occupancy bit set on empty level");
        probe!(Tag::RunqPop, t.trace_id(), lvl);
        if q.is_empty() {
            self.occupied &= !(1 << lvl);
        }
        self.len -= 1;
        Some(t)
    }

    /// Removes a specific item wherever it is queued; returns whether it
    /// was present (used by `thread_stop` of a runnable thread).
    pub fn remove(&mut self, t: &T) -> bool {
        for lvl in 0..LEVELS {
            let q = &mut self.levels[lvl];
            if let Some(pos) = q.iter().position(|x| x.same(t)) {
                q.remove(pos);
                if q.is_empty() {
                    self.occupied &= !(1 << lvl);
                }
                self.len -= 1;
                return true;
            }
        }
        false
    }

    /// Highest occupied priority level, or -1 when empty — the value a
    /// shard advertises for steal victim selection.
    pub fn top_level(&self) -> i32 {
        if self.occupied == 0 {
            -1
        } else {
            63 - self.occupied.leading_zeros() as i32
        }
    }

    /// Number of queued items.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no item is queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl<T: RunItem> Default for RunQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

/// One LWP's local run queue plus the metadata other LWPs read without the
/// lock: the length and the advertised top priority. On cache lines of its
/// own: the owner writes `ticks` on every pop and `len`/`top`/`pushes` on
/// every push, and none of that may share a line with a neighbour's lock.
#[repr(align(64))]
pub(crate) struct Shard<T> {
    q: Mutex<RunQueue<T>>,
    len: AtomicUsize,
    /// [`RunQueue::top_level`] of `q`, republished under the shard lock on
    /// every mutation. Thieves scan these to pick a victim without
    /// touching any lock.
    top: AtomicI32,
    /// Pops served from this shard, for the [`FAIR_EVERY`] rotation. It is
    /// also the owner's progress signal: a shard whose `ticks` did not move
    /// between two fairness ticks of a thief has an owner that stopped
    /// popping.
    ticks: AtomicUsize,
    /// The `ticks` of every shard as this shard's owner saw them at its
    /// previous fairness tick, indexed by shard. Written only by the LWPs
    /// this shard is home to, once per [`FAIR_EVERY`] pops.
    seen: Box<[AtomicUsize]>,
    /// Owner pushes accepted by this shard (spills excluded). This and the
    /// two counts below change only under the shard lock, so they are
    /// plain load+store cells on a line that the lock already owns.
    pushes: AtomicU64,
    /// Owner pops served from this shard's own queue.
    pops: AtomicU64,
    /// Items thieves took from this shard (this shard as victim).
    stolen: AtomicU64,
}

/// Adds one to a counter written only under the lock that guards it.
fn bump(c: &AtomicU64) {
    c.store(c.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
}

/// The injection queue and its traffic counts, all under one lock.
struct Inject<T> {
    q: RunQueue<T>,
    /// Pushes routed through injection.
    pushes: u64,
    /// The subset of `pushes` that spilled from a shard at [`SHARD_CAP`].
    overflows: u64,
}

impl<T: RunItem> Shard<T> {
    fn new(shards: usize) -> Shard<T> {
        Shard {
            q: Mutex::new(RunQueue::new()),
            len: AtomicUsize::new(0),
            top: AtomicI32::new(-1),
            ticks: AtomicUsize::new(0),
            seen: (0..shards).map(|_| AtomicUsize::new(0)).collect(),
            pushes: AtomicU64::new(0),
            pops: AtomicU64::new(0),
            stolen: AtomicU64::new(0),
        }
    }
}

/// One shard's traffic counters plus its instantaneous depth, as reported
/// by [`ShardedRunQueue::shard_stats`].
#[derive(Clone, Copy, Debug)]
pub struct ShardStat {
    /// Owner pushes accepted by the shard (overflow spills excluded).
    pub pushes: u64,
    /// Pops the owner served from its own queue.
    pub pops: u64,
    /// Items other LWPs stole from this shard.
    pub stolen: u64,
    /// Current queue depth (racy snapshot).
    pub len: usize,
}

/// The production dispatcher structure: per-LWP run-queue shards with
/// priority-aware work stealing and a global injection queue.
///
/// * **Owner push/pop** touches only the owner's shard lock, which is
///   contended only by the occasional thief — the common path is one
///   uncontended lock instead of the process-wide one.
/// * **Stealing** scans the shards' advertised top priorities (plain atomic
///   loads), locks the best victim, and takes its highest-priority item, so
///   the paper's "highest priority runnable thread runs" rule holds across
///   shards to the extent the advertisements are fresh.
/// * **Injection** receives pushes from contexts with no shard of their own
///   and overflow from shards deeper than [`SHARD_CAP`]; every popper
///   drains it before stealing.
pub struct ShardedRunQueue<T> {
    shards: Vec<Shard<T>>,
    inject: Mutex<Inject<T>>,
    /// [`RunQueue::top_level`] of `inject`, republished under the inject
    /// lock on every mutation — the preemption check reads it without the
    /// lock, like the shard `top` advertisements.
    inject_top: AtomicI32,
    /// The injection queue's length, republished likewise; a popper that
    /// reads 0 skips the inject lock.
    inject_len: AtomicUsize,
    next_shard: AtomicUsize,
}

/// Where a pushed item landed (so wakeups can target the right LWP).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Placement {
    /// On the shard with this index.
    Shard(usize),
    /// On the global injection queue.
    Injected,
}

impl<T: RunItem> ShardedRunQueue<T> {
    /// Creates a queue with `shards` shards (at least one).
    pub fn new(shards: usize) -> ShardedRunQueue<T> {
        let n = shards.max(1);
        ShardedRunQueue {
            shards: (0..n).map(|_| Shard::new(n)).collect(),
            inject: Mutex::new(Inject {
                q: RunQueue::new(),
                pushes: 0,
                overflows: 0,
            }),
            inject_top: AtomicI32::new(-1),
            inject_len: AtomicUsize::new(0),
            next_shard: AtomicUsize::new(0),
        }
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Hands out home-shard indices to LWPs round-robin.
    pub fn assign_shard(&self) -> usize {
        self.next_shard.fetch_add(1, Ordering::Relaxed) % self.shards.len()
    }

    /// Pushes `t` onto shard `shard` (the caller's home shard), spilling to
    /// the injection queue when that shard is at [`SHARD_CAP`].
    pub fn push(&self, shard: usize, t: T) -> Placement {
        let s = &self.shards[shard % self.shards.len()];
        if s.len.load(Ordering::Relaxed) >= SHARD_CAP {
            return self.inject(t, true);
        }
        let mut q = unpoisoned(&s.q);
        q.push(t);
        s.len.store(q.len(), Ordering::Release);
        s.top.store(q.top_level(), Ordering::Release);
        bump(&s.pushes);
        drop(q);
        Placement::Shard(shard % self.shards.len())
    }

    /// Pushes `t` onto the global injection queue — the path for wakeups
    /// from contexts that have no home shard.
    pub fn push_inject(&self, t: T) -> Placement {
        self.inject(t, false)
    }

    fn inject(&self, t: T, overflow: bool) -> Placement {
        probe!(Tag::RunqInject, t.trace_id());
        let mut inj = unpoisoned(&self.inject);
        inj.q.push(t);
        inj.pushes += 1;
        inj.overflows += u64::from(overflow);
        self.publish_inject(&inj);
        Placement::Injected
    }

    /// Republishes the injection queue's advertisements; called under its
    /// lock after every mutation.
    fn publish_inject(&self, inj: &Inject<T>) {
        self.inject_len.store(inj.q.len(), Ordering::Release);
        self.inject_top.store(inj.q.top_level(), Ordering::Release);
    }

    /// Dequeues the next item for the LWP whose home shard is `shard`:
    /// own shard first, then the injection queue, then a steal — except
    /// every [`FAIR_EVERY`]th pop, which services injection, then a steal
    /// from a stalled shard, first, so a busy own shard cannot starve work
    /// that no other LWP will run.
    pub fn pop(&self, shard: usize) -> Option<T> {
        let s = &self.shards[shard % self.shards.len()];
        let tick = s.ticks.fetch_add(1, Ordering::Relaxed);
        if tick % FAIR_EVERY == FAIR_EVERY - 1 {
            if let Some(t) = self.pop_inject() {
                return Some(t);
            }
            if let Some(t) = self.steal_stalled(shard) {
                return Some(t);
            }
        }
        // Priority order between the two queues this LWP dispatches from:
        // an injected thread that outranks the shard's advertised top must
        // go first — a preempted thread requeues on its own shard, and
        // taking the shard blindly would dispatch it ahead of the very
        // thread whose arrival preempted it. Stale reads only cost the
        // fallback order for one dispatch, never correctness.
        if self.inject_top.load(Ordering::Acquire) > s.top.load(Ordering::Acquire) {
            if let Some(t) = self.pop_inject() {
                return Some(t);
            }
        }
        if let Some(t) = self.pop_own(shard) {
            return Some(t);
        }
        if let Some(t) = self.pop_inject() {
            return Some(t);
        }
        self.steal(shard)
    }

    /// Pops from `shard` only.
    pub fn pop_own(&self, shard: usize) -> Option<T> {
        let s = &self.shards[shard % self.shards.len()];
        if s.len.load(Ordering::Acquire) == 0 {
            return None;
        }
        let mut q = unpoisoned(&s.q);
        let t = q.pop();
        s.len.store(q.len(), Ordering::Release);
        s.top.store(q.top_level(), Ordering::Release);
        if t.is_some() {
            bump(&s.pops);
        }
        t
    }

    /// Pops from the injection queue only; reads its length advertisement
    /// first and leaves the lock alone while it says 0.
    pub fn pop_inject(&self) -> Option<T> {
        if self.inject_len.load(Ordering::Acquire) == 0 {
            return None;
        }
        let mut inj = unpoisoned(&self.inject);
        let t = inj.q.pop();
        self.publish_inject(&inj);
        t
    }

    /// The highest priority runnable *somewhere this LWP could dispatch
    /// from*: its own shard's advertisement or the injection queue's. This
    /// is the preemption check's one-load question — "is something better
    /// than me waiting?" — deliberately excluding other shards (their own
    /// LWPs service them; stealing a preemption across shards would ping
    /// -pong hogs). Returns -1 when both read empty.
    pub fn preempt_priority(&self, shard: usize) -> i32 {
        let s = &self.shards[shard % self.shards.len()];
        s.top
            .load(Ordering::Acquire)
            .max(self.inject_top.load(Ordering::Acquire))
    }

    /// Steals one item for the LWP on shard `me`: picks the victim
    /// advertising the highest top priority, re-scanning if the victim was
    /// drained under it. Returns `None` when every other shard reads
    /// empty — callers treat that as "nothing runnable" and may park, so a
    /// spurious `None` under a race costs a wakeup, never correctness
    /// (pushers wake a parked LWP after publishing).
    pub fn steal(&self, me: usize) -> Option<T> {
        // Bounded rescans: each failed attempt means the victim emptied
        // between the scan and the lock, and its advertisement was fixed
        // under that lock, so the scan converges quickly.
        for _ in 0..self.shards.len().max(4) {
            let mut best: Option<(i32, usize)> = None;
            for (i, s) in self.shards.iter().enumerate() {
                if i == me % self.shards.len() {
                    continue;
                }
                let top = s.top.load(Ordering::Acquire);
                if top >= 0 && best.is_none_or(|(bt, _)| top > bt) {
                    best = Some((top, i));
                }
            }
            let (_, victim) = best?;
            if let Some(t) = self.take_from(victim) {
                return Some(t);
            }
        }
        None
    }

    /// The fairness tick's steal, for the LWP on shard `me`: takes one item
    /// from the highest-advertising shard whose owner made no pop since
    /// `me`'s previous fairness tick (its `ticks` did not move). An owner
    /// that keeps popping keeps its work, so a busy pair of LWPs never
    /// trade threads — and with them the stacks and thread objects their
    /// magazines hold — on this path. A shard whose owner sits in a
    /// `blocking()` region or is gone is drained within two fairness
    /// ticks: the first records its `ticks`, the next finds them unmoved.
    fn steal_stalled(&self, me: usize) -> Option<T> {
        let me = me % self.shards.len();
        let seen = &self.shards[me].seen;
        let mut best: Option<(i32, usize)> = None;
        for (i, s) in self.shards.iter().enumerate() {
            if i == me {
                continue;
            }
            let ticks = s.ticks.load(Ordering::Relaxed);
            let stalled = seen[i].load(Ordering::Relaxed) == ticks;
            seen[i].store(ticks, Ordering::Relaxed);
            let top = s.top.load(Ordering::Acquire);
            if stalled && top >= 0 && best.is_none_or(|(bt, _)| top > bt) {
                best = Some((top, i));
            }
        }
        self.take_from(best?.1)
    }

    /// Steals `victim`'s highest-priority item, if it still has one.
    fn take_from(&self, victim: usize) -> Option<T> {
        let s = &self.shards[victim];
        let mut q = unpoisoned(&s.q);
        let t = q.pop();
        s.len.store(q.len(), Ordering::Release);
        s.top.store(q.top_level(), Ordering::Release);
        if t.is_some() {
            bump(&s.stolen);
        }
        drop(q);
        let t = t?;
        probe!(Tag::RunqSteal, t.trace_id(), victim);
        Some(t)
    }

    /// Removes a specific item wherever it is queued; returns whether it
    /// was present.
    pub fn remove(&self, t: &T) -> bool {
        {
            let mut inj = unpoisoned(&self.inject);
            if inj.q.remove(t) {
                self.publish_inject(&inj);
                return true;
            }
        }
        for s in &self.shards {
            let mut q = unpoisoned(&s.q);
            if q.remove(t) {
                s.len.store(q.len(), Ordering::Release);
                s.top.store(q.top_level(), Ordering::Release);
                return true;
            }
        }
        false
    }

    /// Total queued items across all shards and the injection queue: the
    /// sum of their length advertisements. Each is republished under its
    /// queue's lock, so the sum is exact once the queue is quiescent and
    /// can lag a concurrent push or pop otherwise. No push or pop writes a
    /// queue-wide word to keep it.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.len.load(Ordering::Acquire))
            .sum::<usize>()
            + self.inject_len.load(Ordering::Acquire)
    }

    /// Whether nothing is queued anywhere.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Successful steals since creation: the sum of the shards' `stolen`
    /// counts.
    pub fn steal_count(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.stolen.load(Ordering::Relaxed))
            .sum()
    }

    /// Injection-queue pushes since creation.
    pub fn inject_count(&self) -> u64 {
        unpoisoned(&self.inject).pushes
    }

    /// Owner pushes that spilled to injection because their shard was at
    /// [`SHARD_CAP`] (a subset of [`Self::inject_count`]).
    pub fn overflow_count(&self) -> u64 {
        unpoisoned(&self.inject).overflows
    }

    /// Per-shard traffic counters and instantaneous depths, in shard order.
    pub fn shard_stats(&self) -> Vec<ShardStat> {
        self.shards
            .iter()
            .map(|s| ShardStat {
                pushes: s.pushes.load(Ordering::Relaxed),
                pops: s.pops.load(Ordering::Relaxed),
                stolen: s.stolen.load(Ordering::Relaxed),
                len: s.len.load(Ordering::Relaxed),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::thread::Thread;
    use crate::types::CreateFlags;
    use std::sync::Arc;

    fn mk(priority: i32) -> Arc<Thread> {
        Thread::new_for_test(priority, CreateFlags::NONE)
    }

    #[test]
    fn pops_highest_priority_first() {
        let mut q = RunQueue::new();
        let low = mk(1);
        let high = mk(10);
        let mid = mk(5);
        q.push(Arc::clone(&low));
        q.push(Arc::clone(&high));
        q.push(Arc::clone(&mid));
        assert!(Arc::ptr_eq(&q.pop().unwrap(), &high));
        assert!(Arc::ptr_eq(&q.pop().unwrap(), &mid));
        assert!(Arc::ptr_eq(&q.pop().unwrap(), &low));
        assert!(q.pop().is_none());
    }

    #[test]
    fn fifo_within_a_level() {
        let mut q = RunQueue::new();
        let a = mk(3);
        let b = mk(3);
        q.push(Arc::clone(&a));
        q.push(Arc::clone(&b));
        assert!(Arc::ptr_eq(&q.pop().unwrap(), &a));
        assert!(Arc::ptr_eq(&q.pop().unwrap(), &b));
    }

    #[test]
    fn priorities_clamp_into_range() {
        assert_eq!(RunQueue::<(i32, u64)>::level_for(-5), 0);
        assert_eq!(RunQueue::<(i32, u64)>::level_for(0), 0);
        assert_eq!(RunQueue::<(i32, u64)>::level_for(63), 63);
        assert_eq!(RunQueue::<(i32, u64)>::level_for(1_000_000), 63);
    }

    #[test]
    fn remove_unlinks_and_updates_len() {
        let mut q = RunQueue::new();
        let a = mk(2);
        let b = mk(2);
        q.push(Arc::clone(&a));
        q.push(Arc::clone(&b));
        assert!(q.remove(&a));
        assert!(!q.remove(&a));
        assert_eq!(q.len(), 1);
        assert!(Arc::ptr_eq(&q.pop().unwrap(), &b));
        assert!(q.is_empty());
    }

    #[test]
    fn top_level_tracks_occupancy() {
        let mut q = RunQueue::new();
        assert_eq!(q.top_level(), -1);
        q.push((3, 1));
        q.push((10, 2));
        assert_eq!(q.top_level(), 10);
        q.pop();
        assert_eq!(q.top_level(), 3);
        q.pop();
        assert_eq!(q.top_level(), -1);
    }

    #[test]
    fn sharded_owner_path_round_trips() {
        let q = ShardedRunQueue::new(4);
        assert_eq!(q.push(1, (5, 100)), Placement::Shard(1));
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(1), Some((5, 100)));
        assert!(q.is_empty());
        assert_eq!(q.steal_count(), 0);
    }

    #[test]
    fn pop_drains_injection_before_stealing() {
        let q = ShardedRunQueue::new(4);
        q.push(2, (1, 10));
        q.push_inject((1, 20));
        // Shard 0 is empty: it must take the injected item first (no steal
        // counted), then steal shard 2's.
        assert_eq!(q.pop(0), Some((1, 20)));
        assert_eq!(q.steal_count(), 0);
        assert_eq!(q.pop(0), Some((1, 10)));
        assert_eq!(q.steal_count(), 1);
        assert!(q.pop(0).is_none());
    }

    #[test]
    fn injected_item_outranking_the_shard_dispatches_first() {
        let q = ShardedRunQueue::new(2);
        // The preemption shape: the decayed hog requeued on its own shard,
        // the freshly woken high-priority thread injected from off-pool.
        q.push(0, (0, 1));
        q.push_inject((20, 2));
        assert_eq!(q.preempt_priority(0), 20);
        assert_eq!(q.pop(0), Some((20, 2)));
        assert_eq!(q.pop(0), Some((0, 1)));
        // An injected item that does NOT outrank the shard waits its turn.
        q.push(0, (5, 3));
        q.push_inject((5, 4));
        assert_eq!(q.pop(0), Some((5, 3)));
        assert_eq!(q.pop(0), Some((5, 4)));
    }

    #[test]
    fn preempt_priority_tracks_inject_queue() {
        let q = ShardedRunQueue::new(2);
        assert_eq!(q.preempt_priority(0), -1);
        q.push_inject((7, 1));
        q.push_inject((3, 2));
        assert_eq!(q.preempt_priority(0), 7);
        assert_eq!(q.pop_inject(), Some((7, 1)));
        assert_eq!(q.preempt_priority(0), 3);
        assert_eq!(q.pop_inject(), Some((3, 2)));
        assert_eq!(q.preempt_priority(0), -1);
    }

    #[test]
    fn steal_picks_the_highest_priority_victim() {
        let q = ShardedRunQueue::new(4);
        q.push(1, (3, 10));
        q.push(2, (9, 20));
        q.push(3, (6, 30));
        // Victim selection is by advertised top priority, deterministically:
        // shard 2 (prio 9), then 3 (prio 6), then 1 (prio 3).
        assert_eq!(q.steal(0), Some((9, 20)));
        assert_eq!(q.steal(0), Some((6, 30)));
        assert_eq!(q.steal(0), Some((3, 10)));
        assert_eq!(q.steal(0), None);
        assert_eq!(q.steal_count(), 3);
    }

    #[test]
    fn steal_never_takes_from_own_shard() {
        let q = ShardedRunQueue::new(2);
        q.push(0, (5, 1));
        assert_eq!(q.steal(0), None);
        assert_eq!(q.pop_own(0), Some((5, 1)));
    }

    #[test]
    fn overflow_spills_to_injection() {
        let q = ShardedRunQueue::new(2);
        for i in 0..SHARD_CAP as u64 {
            assert_eq!(q.push(0, (1, i)), Placement::Shard(0));
        }
        assert_eq!(q.push(0, (1, 9999)), Placement::Injected);
        assert_eq!(q.inject_count(), 1);
        assert_eq!(q.len(), SHARD_CAP + 1);
        // A popper on the *other* shard sees the spilled item via the
        // injection queue without stealing.
        assert_eq!(q.pop_inject(), Some((1, 9999)));
    }

    #[test]
    fn fairness_tick_drains_injection_under_a_busy_shard() {
        let q = ShardedRunQueue::new(2);
        q.push_inject((1, 999));
        // An owner that re-queues its thread on every dispatch (a yield
        // loop) keeps its shard permanently non-empty; the injected item
        // must still come out within FAIR_EVERY pops.
        q.push(0, (1, 1));
        for i in 0..FAIR_EVERY {
            let t = q.pop(0).expect("both queues non-empty");
            if t.1 == 999 {
                assert!(i > 0, "fair path should not fire on the first pop");
                return;
            }
            q.push(0, t);
        }
        panic!("injected item starved for {FAIR_EVERY} dispatches");
    }

    #[test]
    fn fairness_tick_steals_from_a_stalled_shard() {
        let q = ShardedRunQueue::new(2);
        // Shard 1's owner never pops (it is blocked, or gone) while shard
        // 0's owner runs a yield loop: the orphaned item must come out
        // within two fairness rounds.
        q.push(1, (1, 999));
        q.push(0, (1, 1));
        for _ in 0..2 * FAIR_EVERY {
            let t = q.pop(0).expect("own shard non-empty");
            if t.1 == 999 {
                assert_eq!(q.steal_count(), 1);
                return;
            }
            q.push(0, t);
        }
        panic!(
            "stalled shard's item starved for {} dispatches",
            2 * FAIR_EVERY
        );
    }

    #[test]
    fn fairness_tick_leaves_a_popping_owner_its_work() {
        let q = ShardedRunQueue::new(2);
        // Both owners run a yield loop and keep a second item queued: each
        // pops between the other's fairness ticks, so neither ever steals.
        for shard in 0..2 {
            q.push(shard, (1, shard as u64));
            q.push(shard, (1, 10 + shard as u64));
        }
        for _ in 0..10 * FAIR_EVERY {
            for shard in 0..2 {
                let t = q.pop(shard).expect("own shard non-empty");
                assert_eq!(t.1 % 10, shard as u64, "shard {shard} took another's item");
                q.push(shard, t);
            }
        }
        assert_eq!(q.steal_count(), 0);
    }

    #[test]
    fn remove_finds_items_in_any_shard_or_injection() {
        let q = ShardedRunQueue::new(3);
        q.push(0, (2, 1));
        q.push(1, (2, 2));
        q.push_inject((2, 3));
        assert!(q.remove(&(2, 3)));
        assert!(q.remove(&(2, 2)));
        assert!(!q.remove(&(2, 2)));
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(0), Some((2, 1)));
        assert!(q.is_empty());
    }

    #[test]
    fn single_shard_degenerates_to_the_global_queue() {
        let q = ShardedRunQueue::new(1);
        q.push(0, (1, 1));
        q.push(0, (9, 2));
        assert_eq!(q.pop(0), Some((9, 2)));
        assert_eq!(q.pop(0), Some((1, 1)));
        assert_eq!(q.steal_count(), 0);
    }

    #[test]
    fn unpoisoned_recovers_a_poisoned_lock() {
        let m = Mutex::new(7);
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _g = m.lock().unwrap();
            panic!("poison it");
        }));
        assert!(m.is_poisoned());
        assert_eq!(*unpoisoned(&m), 7);
    }
}
