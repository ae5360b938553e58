//! Sleep queues: which thread is blocked on which synchronization variable.
//!
//! "Synchronization variables that are not in shared memory are completely
//! unknown to the kernel" — an unbound thread blocking on one is recorded
//! here, in process memory, and woken here, without any kernel involvement.
//! The table is keyed by the *address* of the variable's wait word, exactly
//! like the kernel's futex hash but in user space — and, like SunOS's hashed
//! sleep queues, it is split into address-hashed shards so threads blocking
//! on unrelated variables never touch the same lock.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard};

use crate::runq::unpoisoned;
use crate::thread::Thread;

/// Number of sleep-queue shards: one per address bucket of
/// `sunmt_sync::strategy`, whose kernel-parker counts use the same hash.
/// 64 queues is enough that unrelated variables essentially never collide
/// while a full-table scan (only `remove_thread`, a stop/kill path) stays
/// trivial.
pub const SLEEPQ_SHARDS: usize = sunmt_sync::strategy::ADDR_BUCKETS;

/// Maps a wait-word address to its shard: its address bucket
/// ([`sunmt_sync::strategy::addr_bucket`]).
#[inline]
pub fn shard_of(addr: usize) -> usize {
    sunmt_sync::strategy::addr_bucket(addr)
}

/// Address-keyed queues of sleeping threads (one shard's worth).
#[derive(Default)]
pub struct SleepTable {
    queues: HashMap<usize, Vec<Arc<Thread>>>,
    len: usize,
}

impl SleepTable {
    /// Creates an empty table.
    pub fn new() -> SleepTable {
        SleepTable::default()
    }

    /// Records `t` as sleeping on the word at `addr`.
    pub fn insert(&mut self, addr: usize, t: Arc<Thread>) {
        self.queues.entry(addr).or_default().push(t);
        self.len += 1;
    }

    /// Removes up to `n` threads sleeping on `addr`, FIFO.
    pub fn take(&mut self, addr: usize, n: usize) -> Vec<Arc<Thread>> {
        let Some(q) = self.queues.get_mut(&addr) else {
            return Vec::new();
        };
        let k = n.min(q.len());
        let woken: Vec<Arc<Thread>> = q.drain(..k).collect();
        if q.is_empty() {
            self.queues.remove(&addr);
        }
        self.len -= woken.len();
        woken
    }

    /// Removes a specific thread wherever it sleeps; returns whether it was
    /// found (used when stopping or killing a sleeping thread).
    pub fn remove_thread(&mut self, t: &Arc<Thread>) -> bool {
        let mut empty_key = None;
        for (addr, q) in self.queues.iter_mut() {
            if let Some(pos) = q.iter().position(|x| Arc::ptr_eq(x, t)) {
                q.remove(pos);
                self.len -= 1;
                if q.is_empty() {
                    empty_key = Some(*addr);
                }
                if let Some(k) = empty_key {
                    self.queues.remove(&k);
                }
                return true;
            }
        }
        false
    }

    /// Removes a specific thread only if it sleeps on `addr`; returns
    /// whether it did (used by timeout expiry, where the thread may have
    /// already been woken and gone to sleep on a different variable).
    pub fn remove_thread_at(&mut self, addr: usize, t: &Arc<Thread>) -> bool {
        let Some(q) = self.queues.get_mut(&addr) else {
            return false;
        };
        let Some(pos) = q.iter().position(|x| Arc::ptr_eq(x, t)) else {
            return false;
        };
        q.remove(pos);
        self.len -= 1;
        if q.is_empty() {
            self.queues.remove(&addr);
        }
        true
    }

    /// Total number of sleeping threads.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether nothing sleeps.
    #[cfg(test)]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// The process sleep queue: [`SLEEPQ_SHARDS`] independently locked
/// [`SleepTable`]s selected by wait-word address.
pub struct ShardedSleepQueue {
    shards: Box<[Mutex<SleepTable>]>,
}

impl Default for ShardedSleepQueue {
    fn default() -> ShardedSleepQueue {
        ShardedSleepQueue::new()
    }
}

impl ShardedSleepQueue {
    /// Creates the sharded queue, all shards empty.
    pub fn new() -> ShardedSleepQueue {
        ShardedSleepQueue {
            shards: (0..SLEEPQ_SHARDS)
                .map(|_| Mutex::new(SleepTable::new()))
                .collect(),
        }
    }

    /// Locks and returns `addr`'s shard (plus its index, for tracing).
    ///
    /// The dispatcher uses this to re-check the wait word and insert the
    /// sleeper under one hold, which is what makes a racing wake unable to
    /// slip between the check and the insert.
    pub fn shard(&self, addr: usize) -> (usize, MutexGuard<'_, SleepTable>) {
        let i = shard_of(addr);
        (i, unpoisoned(&self.shards[i]))
    }

    /// Removes up to `n` threads sleeping on `addr`, FIFO.
    pub fn take(&self, addr: usize, n: usize) -> Vec<Arc<Thread>> {
        self.shard(addr).1.take(addr, n)
    }

    /// Removes a specific thread wherever it sleeps (full scan across the
    /// shards); returns whether it was found.
    pub fn remove_thread(&self, t: &Arc<Thread>) -> bool {
        self.shards.iter().any(|s| unpoisoned(s).remove_thread(t))
    }

    /// Total number of sleeping threads (locks each shard in turn, so a
    /// concurrent transition can make the sum lag by one; diagnostic use).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| unpoisoned(s).len()).sum()
    }

    /// Per-shard occupancy (sleeping threads per shard, in shard order) —
    /// the distribution the stats exporter reports so a hash hot spot is
    /// visible. Same locking caveat as [`Self::len`].
    pub fn shard_lens(&self) -> Vec<usize> {
        self.shards.iter().map(|s| unpoisoned(s).len()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::CreateFlags;

    fn mk() -> Arc<Thread> {
        Thread::new_for_test(0, CreateFlags::NONE)
    }

    #[test]
    fn take_is_fifo_per_address() {
        let mut tbl = SleepTable::new();
        let (a, b, c) = (mk(), mk(), mk());
        tbl.insert(100, Arc::clone(&a));
        tbl.insert(100, Arc::clone(&b));
        tbl.insert(200, Arc::clone(&c));
        let woken = tbl.take(100, 1);
        assert_eq!(woken.len(), 1);
        assert!(Arc::ptr_eq(&woken[0], &a));
        assert_eq!(tbl.len(), 2);
        let woken = tbl.take(100, 10);
        assert_eq!(woken.len(), 1);
        assert!(Arc::ptr_eq(&woken[0], &b));
        assert!(!tbl.take(200, usize::MAX).is_empty());
        assert!(tbl.is_empty());
    }

    #[test]
    fn take_on_unknown_address_is_empty() {
        let mut tbl = SleepTable::new();
        assert!(tbl.take(42, 5).is_empty());
    }

    #[test]
    fn remove_thread_finds_it_anywhere() {
        let mut tbl = SleepTable::new();
        let (a, b) = (mk(), mk());
        tbl.insert(1, Arc::clone(&a));
        tbl.insert(2, Arc::clone(&b));
        assert!(tbl.remove_thread(&b));
        assert!(!tbl.remove_thread(&b));
        assert_eq!(tbl.len(), 1);
    }

    #[test]
    fn shard_hash_is_in_range_and_spreads() {
        let mut seen = std::collections::HashSet::new();
        // Word addresses in practice are 4-byte aligned and often share
        // high bits (same heap region); the hash must still spread them.
        for i in 0..1024usize {
            let s = shard_of(0x7f00_0000_0000 + i * 4);
            assert!(s < SLEEPQ_SHARDS);
            seen.insert(s);
        }
        assert!(seen.len() > SLEEPQ_SHARDS / 2, "hash collapsed: {seen:?}");
    }

    #[test]
    fn sharded_queue_round_trips_across_shards() {
        let q = ShardedSleepQueue::new();
        let (a, b) = (mk(), mk());
        let addr_a = 0x1000;
        // Find an address on a different shard than `addr_a`.
        let addr_b = (1..)
            .map(|i| 0x1000 + i * 4)
            .find(|&x| shard_of(x) != shard_of(addr_a))
            .unwrap();
        q.shard(addr_a).1.insert(addr_a, Arc::clone(&a));
        q.shard(addr_b).1.insert(addr_b, Arc::clone(&b));
        assert_eq!(q.len(), 2);
        assert!(q.shard(addr_b).1.remove_thread_at(addr_b, &b));
        assert!(!q.shard(addr_b).1.remove_thread_at(addr_b, &b));
        assert!(q.remove_thread(&a));
        assert_eq!(q.len(), 0);
    }
}
