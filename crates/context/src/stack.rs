//! Thread stacks: guarded `mmap` regions and the default-stack cache.
//!
//! The paper lets the programmer supply a stack (`stack_addr`/`stack_size`
//! arguments of `thread_create()`) "so as not to interfere with its memory
//! allocator", or have the library allocate one. Library-allocated stacks
//! here are dedicated anonymous mappings with a `PROT_NONE` guard page at
//! the low end, so runaway recursion faults instead of corrupting a
//! neighbouring thread's stack. The Figure 5 creation-time measurement uses
//! "a default stack that is cached by the threads package" —
//! [`StackCache`] is that cache.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use sunmt_sys::mem::{self, Prot, PAGE_SIZE};
use sunmt_sys::Errno;

/// The default usable stack size for library-allocated stacks.
pub const DEFAULT_STACK_SIZE: usize = 128 * 1024;

/// An owned, guarded thread stack.
///
/// Layout (addresses increasing):
///
/// ```text
/// base                        base+PAGE_SIZE                 top()
///  |--- guard page (no access) |--- usable stack, grows down --|
/// ```
#[derive(Debug)]
pub struct Stack {
    base: *mut u8,
    total: usize,
    /// Guard bytes at the low end (0 for borrowed regions).
    guard: usize,
    /// Whether we own (and must unmap) the region.
    owned: bool,
}

// SAFETY: A Stack exclusively owns its mapping; the raw pointer is not
// aliased and the mapping is valid in any thread of the process.
unsafe impl Send for Stack {}
// SAFETY: Shared references to a Stack only read its base/size metadata.
unsafe impl Sync for Stack {}

impl Stack {
    /// Maps a new stack with at least `usable` usable bytes below a guard
    /// page.
    pub fn new(usable: usize) -> Result<Stack, Errno> {
        let usable = usable.max(PAGE_SIZE).next_multiple_of(PAGE_SIZE);
        let total = usable + PAGE_SIZE;
        let base = mem::map_anonymous(total, Prot::READ_WRITE)?;
        // SAFETY: `base` is the start of our fresh private mapping and
        // nothing references it yet.
        unsafe { mem::protect(base, PAGE_SIZE, Prot::NONE)? };
        Ok(Stack {
            base,
            total,
            guard: PAGE_SIZE,
            owned: true,
        })
    }

    /// Adopts a caller-supplied memory region as a stack.
    ///
    /// This is the paper's `thread_create(stack_addr, stack_size, ...)`
    /// path: "this allows a language run-time library to control thread
    /// storage without interference with its memory allocator". The region
    /// gets no guard page and is never freed by us — "if a stack was
    /// supplied by the programmer ... it may be reclaimed when
    /// `thread_wait()` returns successfully".
    ///
    /// # Safety
    ///
    /// `base..base+len` must be writable, 16-byte-alignable memory that
    /// outlives every use of the returned stack and is used by nothing else.
    pub unsafe fn from_raw_parts(base: *mut u8, len: usize) -> Stack {
        Stack {
            base,
            total: len,
            guard: 0,
            owned: false,
        }
    }

    /// Whether this stack is a library-owned mapping (as opposed to a
    /// caller-supplied region).
    pub fn is_owned(&self) -> bool {
        self.owned
    }

    /// The high end of the stack — the initial stack pointer (stacks grow
    /// down on x86-64).
    pub fn top(&self) -> *mut u8 {
        // SAFETY: `base + total` is one-past-the-end of the owned mapping,
        // which is a valid provenance-preserving computation.
        unsafe { self.base.add(self.total) }
    }

    /// The low end of the usable region (just above the guard page, if
    /// any).
    pub fn limit(&self) -> *mut u8 {
        // SAFETY: In-bounds offset within the region.
        unsafe { self.base.add(self.guard) }
    }

    /// Usable bytes between [`Self::limit`] and [`Self::top`].
    pub fn usable(&self) -> usize {
        self.total - self.guard
    }

    /// Tells the kernel the usable pages may be lazily reclaimed
    /// (`MADV_FREE`). The mapping — and the guard page's `PROT_NONE` —
    /// stays intact; the next thread to run on this stack just writes over
    /// whatever survived. Called on cached stacks that stayed unused for a
    /// trim period, so an idle process's stack hoard costs address space,
    /// not memory.
    pub fn advise_free(&self) {
        if self.owned {
            // SAFETY: `limit()..top()` is a page-aligned sub-range of our
            // own mapping (the guard page is excluded), and a parked stack
            // has no live contents anyone will read.
            let _ = unsafe { mem::advise(self.limit(), self.usable(), mem::Advice::FREE) };
        }
    }
}

impl Drop for Stack {
    fn drop(&mut self) {
        if self.owned {
            // SAFETY: `base..base+total` is exactly the mapping created in
            // `new`; dropping the Stack proves no references remain.
            let _ = unsafe { mem::unmap(self.base, self.total) };
        }
    }
}

/// How many of the hottest cached stacks keep their pages however long
/// they sit unused. The cache is a LIFO, so the top `CACHE_LOW_WATER`
/// entries are the ones the next creates will pop; reusing an advised
/// stack pays zero-fill faults, so a quiet process keeps this reserve
/// (8 MiB of address space, far less resident) for its next burst.
pub const CACHE_LOW_WATER: usize = 64;

/// How long a cached stack below the waterline must go untouched before
/// [`StackCache::trim`] hands its pages back to the kernel.
pub const TRIM_PERIOD: Duration = Duration::from_secs(1);

#[derive(Debug, Default)]
struct CacheInner {
    free: Vec<Stack>,
    /// `free[..advised]` have had their pages `MADV_FREE`d. A take that
    /// reaches below the boundary pulls it down with it, so an entry is
    /// advised again only after it was reused and then went cold again.
    advised: usize,
    /// The shallowest `free.len()` since the trim interval began:
    /// `free[..low]` went the whole interval untouched — the depot's
    /// working set lies above it.
    low: usize,
    /// When the current trim interval began; `None` before the first trim.
    since: Option<Instant>,
    /// `MADV_FREE` calls made by [`StackCache::trim`].
    advises: u64,
    /// Batch exchanges with the per-LWP magazines: [`StackCache::take_batch`]
    /// and [`StackCache::put_batch`] calls (a [`StackCache::put`] is a
    /// batch of one).
    batches: u64,
}

impl CacheInner {
    /// Records that the depot shrank to its current depth.
    fn took(&mut self) {
        self.advised = self.advised.min(self.free.len());
        self.low = self.low.min(self.free.len());
    }

    /// Whether entries beyond the waterline still hold their pages.
    fn surplus(&self) -> bool {
        self.free.len().saturating_sub(CACHE_LOW_WATER) > self.advised
    }
}

/// Locks `m`, ignoring poison: the cache's critical sections only move
/// `Stack` values between vectors and never call user code, so a panic
/// elsewhere cannot leave it half-updated, while a poisoned lock would
/// fail every later thread create and exit.
fn unpoisoned<T: ?Sized>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The depot's traffic counts, as returned by [`StackCache::counts`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DepotCounts {
    /// Stacks whose pages [`StackCache::trim`] `MADV_FREE`d.
    pub advises: u64,
    /// Batch exchanges with the per-LWP magazines.
    pub batches: u64,
}

/// A free list of default-sized stacks.
///
/// Thread exit returns the stack here; thread creation takes one without
/// entering the kernel, which is what makes unbound thread creation two
/// orders of magnitude cheaper than LWP creation in Figure 5. The per-LWP
/// magazines in the core crate batch their refills and drains through this
/// depot ([`Self::take_batch`]/[`Self::put_batch`]), paying its lock once
/// per batch rather than once per create/exit. Neither path advises
/// memory: only [`Self::trim`], which an LWP with nothing to run calls,
/// returns the pages of stacks that stayed cold for a [`TRIM_PERIOD`].
#[derive(Debug, Default)]
pub struct StackCache {
    inner: Mutex<CacheInner>,
    /// Set under the lock by a put that leaves entries beyond the
    /// waterline unadvised; cleared by the trim that finds none. An idle
    /// LWP with nothing to trim reads only this, taking no lock and no
    /// clock reading, and writing no shared line.
    surplus: AtomicBool,
    /// Stacks that takes asked for and did not find, less those put since
    /// ([`Self::wanted`]). Changed only under the lock.
    wanted: AtomicUsize,
}

impl StackCache {
    /// Creates an empty cache.
    pub const fn new() -> StackCache {
        StackCache {
            inner: Mutex::new(CacheInner {
                free: Vec::new(),
                advised: 0,
                low: 0,
                since: None,
                advises: 0,
                batches: 0,
            }),
            surplus: AtomicBool::new(false),
            wanted: AtomicUsize::new(0),
        }
    }

    /// Whether takes found the depot short of stacks that no put has made
    /// up for since. A magazine holding more than a batch drains one early
    /// while this reads true, so a creator whose children exit on other
    /// LWPs (a thread off the pool, say) reuses their stacks instead of
    /// mapping its own.
    pub fn wanted(&self) -> bool {
        self.wanted.load(Ordering::Relaxed) != 0
    }

    /// Takes a cached default stack, or maps a fresh one.
    pub fn take(&self) -> Result<Stack, Errno> {
        let popped = {
            let mut c = unpoisoned(&self.inner);
            let s = c.free.pop();
            c.took();
            s
        };
        match popped {
            Some(s) => Ok(s),
            None => Stack::new(DEFAULT_STACK_SIZE),
        }
    }

    /// Takes up to `n` cached default stacks (possibly none); never maps.
    pub fn take_batch(&self, n: usize) -> Vec<Stack> {
        let mut c = unpoisoned(&self.inner);
        c.batches += 1;
        let at = c.free.len() - n.min(c.free.len());
        let batch = c.free.split_off(at);
        c.took();
        if batch.len() < n {
            let short = n - batch.len();
            let w = self.wanted.load(Ordering::Relaxed);
            self.wanted
                .store(w.saturating_add(short), Ordering::Relaxed);
        }
        batch
    }

    /// Returns a default-sized stack to the cache; other sizes are unmapped
    /// and caller-supplied regions are simply released (never freed).
    pub fn put(&self, stack: Stack) {
        self.put_batch(std::iter::once(stack));
    }

    /// Returns a batch of stacks under one lock hold; see [`Self::put`].
    pub fn put_batch(&self, stacks: impl IntoIterator<Item = Stack>) {
        let mut c = unpoisoned(&self.inner);
        c.batches += 1;
        let before = c.free.len();
        for stack in stacks {
            if stack.is_owned() && stack.usable() == DEFAULT_STACK_SIZE {
                c.free.push(stack);
            }
        }
        let w = self.wanted.load(Ordering::Relaxed);
        if w != 0 {
            let put = c.free.len() - before;
            self.wanted.store(w.saturating_sub(put), Ordering::Relaxed);
        }
        // Only a put can create surplus.
        if c.surplus() && !self.surplus.load(Ordering::Relaxed) {
            self.surplus.store(true, Ordering::Release);
        }
    }

    /// Hands back to the kernel (`MADV_FREE`) the pages of cached stacks
    /// that are both below the [`CACHE_LOW_WATER`] top entries and went a
    /// whole [`TRIM_PERIOD`] without a take reaching them; each such entry
    /// is advised once. The stacks a busy process keeps cycling through are
    /// never advised, however deep the depot gets between their reuses.
    ///
    /// Returns how long until a later call could return more memory, or
    /// `None` when every entry beyond the waterline is already advised.
    /// Called by an LWP about to park with nothing to run, which bounds its
    /// park by the returned time so that a burst followed by quiet still
    /// returns its surplus.
    pub fn trim(&self) -> Option<Duration> {
        if !self.surplus.load(Ordering::Acquire) {
            return None;
        }
        self.trim_at(Instant::now())
    }

    fn trim_at(&self, now: Instant) -> Option<Duration> {
        let mut c = unpoisoned(&self.inner);
        if !c.surplus() {
            self.surplus.store(false, Ordering::Relaxed);
            return None;
        }
        match c.since {
            // The first call only opens an interval.
            None => {}
            Some(since) if now < since + TRIM_PERIOD => {
                return Some(since + TRIM_PERIOD - now);
            }
            Some(_) => {
                // `free[..low]` sat untouched for the whole interval.
                let cold = c.low.min(c.free.len() - CACHE_LOW_WATER);
                for i in c.advised..cold {
                    c.free[i].advise_free();
                    c.advises += 1;
                }
                c.advised = c.advised.max(cold);
            }
        }
        c.low = c.free.len();
        c.since = Some(now);
        if c.surplus() {
            Some(TRIM_PERIOD)
        } else {
            self.surplus.store(false, Ordering::Relaxed);
            None
        }
    }

    /// The depot's `MADV_FREE` calls and magazine batch exchanges since it
    /// was created. Both are counted under the depot's own lock, so
    /// counting adds no shared write to any path.
    pub fn counts(&self) -> DepotCounts {
        let c = unpoisoned(&self.inner);
        DepotCounts {
            advises: c.advises,
            batches: c.batches,
        }
    }

    /// Pre-populates the cache with `n` stacks (used by benchmarks so the
    /// measured path never faults a fresh mapping).
    pub fn prime(&self, n: usize) -> Result<(), Errno> {
        let mut v = Vec::with_capacity(n);
        for _ in 0..n {
            v.push(Stack::new(DEFAULT_STACK_SIZE)?);
        }
        self.put_batch(v);
        Ok(())
    }

    /// Number of stacks currently cached.
    pub fn len(&self) -> usize {
        unpoisoned(&self.inner).free.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stack_is_writable_to_its_limit() {
        let s = Stack::new(8 * 1024).expect("stack");
        assert!(s.usable() >= 8 * 1024);
        // SAFETY: Both ends of the usable region belong to the mapping.
        unsafe {
            s.top().sub(1).write(1);
            s.limit().write(2);
            assert_eq!(*s.top().sub(1), 1);
            assert_eq!(*s.limit(), 2);
        }
    }

    #[test]
    fn sizes_round_up_to_pages() {
        let s = Stack::new(1).expect("stack");
        assert_eq!(s.usable(), PAGE_SIZE);
    }

    #[test]
    fn cache_round_trips_default_stacks() {
        let cache = StackCache::new();
        assert!(cache.is_empty());
        let s = cache.take().expect("take");
        let top = s.top() as usize;
        cache.put(s);
        assert_eq!(cache.len(), 1);
        let s2 = cache.take().expect("take cached");
        assert_eq!(s2.top() as usize, top, "must reuse the cached mapping");
    }

    #[test]
    fn cache_discards_odd_sizes() {
        let cache = StackCache::new();
        cache.put(Stack::new(4 * 1024).expect("stack"));
        assert!(cache.is_empty());
    }

    #[test]
    fn prime_fills_cache() {
        let cache = StackCache::new();
        cache.prime(3).expect("prime");
        assert_eq!(cache.len(), 3);
    }

    #[test]
    fn borrowed_region_is_usable_and_never_freed() {
        let mut region = vec![0u8; 16 * 1024];
        let base = region.as_mut_ptr();
        {
            // SAFETY: `region` outlives the stack and is used by nothing
            // else while the stack exists.
            let s = unsafe { Stack::from_raw_parts(base, region.len()) };
            assert!(!s.is_owned());
            assert_eq!(s.usable(), region.len());
            assert_eq!(s.limit(), base);
            // SAFETY: In-bounds write to our own buffer via the stack view.
            unsafe { s.top().sub(1).write(9) };
        }
        // The Vec is still intact after the Stack dropped.
        assert_eq!(region[16 * 1024 - 1], 9);
    }

    #[test]
    fn cache_refuses_borrowed_stacks() {
        let mut region = vec![0u8; DEFAULT_STACK_SIZE];
        // SAFETY: As above; the stack is consumed by `put` within scope.
        let s = unsafe { Stack::from_raw_parts(region.as_mut_ptr(), region.len()) };
        let cache = StackCache::new();
        cache.put(s);
        assert!(cache.is_empty());
    }

    #[test]
    fn a_short_take_is_wanted_until_puts_make_it_up() {
        let cache = StackCache::new();
        assert!(!cache.wanted());
        cache.prime(3).expect("prime");
        // A take of 8 finds 3: the 5 it missed are wanted.
        let got = cache.take_batch(8);
        assert_eq!(got.len(), 3);
        assert!(cache.wanted());
        let fresh: Vec<Stack> = (0..4)
            .map(|_| Stack::new(DEFAULT_STACK_SIZE).expect("map"))
            .collect();
        cache.put_batch(fresh);
        assert!(cache.wanted(), "4 of the 5 made up");
        cache.put_batch(got);
        assert!(!cache.wanted());
    }

    #[test]
    fn trim_advises_only_what_a_whole_period_left_untouched() {
        let cache = StackCache::new();
        let t0 = Instant::now();
        cache.prime(CACHE_LOW_WATER).expect("prime");
        assert_eq!(cache.trim_at(t0), None, "nothing beyond the waterline");
        cache.prime(16).expect("prime");
        // The first trim opens an interval and advises nothing.
        assert_eq!(cache.trim_at(t0), Some(TRIM_PERIOD));
        // Churn reaches all but the bottom 6 entries: those stay cold.
        let churn = cache.take_batch(74);
        cache.put_batch(churn);
        let early = t0 + TRIM_PERIOD / 2;
        assert_eq!(cache.trim_at(early), Some(TRIM_PERIOD / 2));
        assert_eq!(cache.counts().advises, 0, "advised before a full period");
        let t1 = t0 + TRIM_PERIOD;
        assert_eq!(cache.trim_at(t1), Some(TRIM_PERIOD));
        assert_eq!(cache.counts().advises, 6);
        // A quiet period returns the rest, each entry once.
        assert_eq!(cache.trim_at(t1 + TRIM_PERIOD), None);
        assert_eq!(cache.counts().advises, 16);
        assert_eq!(cache.trim_at(t1 + TRIM_PERIOD * 3), None);
        assert_eq!(cache.counts().advises, 16);
        // Two primes, one take and one put.
        assert_eq!(cache.counts().batches, 4);
    }

    #[test]
    fn a_poisoned_cache_still_serves() {
        let cache = StackCache::new();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _held = cache.inner.lock();
            panic!("poison the cache lock");
        }));
        assert!(result.is_err() && cache.inner.is_poisoned());
        cache.put(cache.take().expect("stack"));
        assert_eq!(cache.len(), 1);
    }
}
