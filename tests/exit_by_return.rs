//! A thread exits by returning from its entry closure, so nothing it
//! owned is stranded on its stack.
//!
//! A continuation's closure once had to switch away instead of returning,
//! which left the boxes carrying it unfreed: two heap blocks per unbound
//! create, and `peak_rss_mb` that grew with the number of creates. This
//! binary counts live heap blocks with its own global allocator and checks
//! that create/exit churn leaves the count flat, for the threads library
//! and for the N:1 coroutine baseline that shares the continuation.
//!
//! The tests take turns: the count is process-wide.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::{Mutex, MutexGuard};

use sunos_mt::baselines::coro::{self, N1Scheduler};
use sunos_mt::threads::{self, CreateFlags, ThreadBuilder};

/// Live heap blocks: allocations minus frees.
static LIVE: AtomicI64 = AtomicI64::new(0);

struct Counting;

// SAFETY: Every call is forwarded unchanged to the system allocator; the
// counter on the side does not affect what is returned.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: Same contract as the caller's.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            LIVE.fetch_add(1, Ordering::Relaxed);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: Same contract as the caller's.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            LIVE.fetch_add(1, Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(1, Ordering::Relaxed);
        // SAFETY: Same contract as the caller's.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: Same contract as the caller's; a move keeps the count.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// Net live blocks that `churn(n)` leaves behind after a warm-up, which
/// fills every cache the churn reaches.
fn growth(churn: impl Fn(u64)) -> i64 {
    churn(10_000);
    let before = LIVE.load(Ordering::Relaxed);
    churn(100_000);
    LIVE.load(Ordering::Relaxed) - before
}

/// Far below the 200,000 blocks the old exit path stranded.
const SLACK: i64 = 64;

#[test]
fn unbound_create_join_leaves_no_heap_behind() {
    let _serial = serial();
    threads::init();
    let grew = growth(|n| {
        for i in 0..n {
            let id = ThreadBuilder::new()
                .flags(CreateFlags::WAIT)
                .spawn(move || {
                    std::hint::black_box(i);
                })
                .expect("spawn");
            threads::wait(Some(id)).expect("wait");
        }
    });
    assert!(
        grew.abs() < SLACK,
        "100k unbound create/join pairs changed live heap blocks by {grew}"
    );
}

#[test]
fn coroutine_spawn_run_leaves_no_heap_behind() {
    let _serial = serial();
    let grew = growth(|n| {
        for _ in 0..n / 100 {
            let s = N1Scheduler::new();
            for _ in 0..100 {
                s.spawn(coro::yield_now);
            }
            assert_eq!(s.run(), 0);
        }
    });
    assert!(
        grew.abs() < SLACK,
        "100k coroutine spawn/run pairs changed live heap blocks by {grew}"
    );
}
