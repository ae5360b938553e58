//! Thread/stack magazine regression tests.
//!
//! Steady-state unbound create/exit must recycle both the thread
//! structure and the stack through the per-LWP magazines (no fresh
//! `mmap`, no fresh allocation), and a recycled stack must still carry
//! its `PROT_NONE` guard page — recycling skips re-running the mapping
//! setup, so the protection established at creation has to survive.
//!
//! The depot behind the magazines returns memory (`MADV_FREE`) only for
//! stacks that stayed cold: never for the working set of a busy process,
//! but still for the surplus a burst leaves behind once the pool is idle.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use sunos_mt::context::stack::DEFAULT_STACK_SIZE;
use sunos_mt::sync::{Sema, SyncType};
use sunos_mt::sys::mem::PAGE_SIZE;
use sunos_mt::threads::{self, CreateFlags, ThreadBuilder, ThreadId};
use sunos_mt::trace::{self, Tag};

/// Trace counters and pool concurrency are process-global; take turns.
static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Creates made one at a time before the probes. The creating thread is
/// not a pool LWP, so it takes stacks from the depot while the exits fill
/// the one pool LWP's magazine; the warm-up must exceed the magazine's
/// capacity plus one batch (64 + 8) for that magazine to overflow to the
/// depot, where the probes' creates can find a warm-up stack.
const WARMUP: usize = 160;
const PROBES: usize = 8;

/// Create-and-join one unbound thread, returning the address of a stack
/// local inside it — a point provably within its stack mapping.
fn churn_one() -> usize {
    let mark = Arc::new(AtomicUsize::new(0));
    let m = Arc::clone(&mark);
    let id = ThreadBuilder::new()
        .flags(CreateFlags::WAIT)
        .spawn(move || {
            let probe = 0u8;
            m.store(&probe as *const u8 as usize, Ordering::SeqCst);
        })
        .expect("spawn");
    threads::wait(Some(id)).expect("join");
    let addr = mark.load(Ordering::SeqCst);
    assert_ne!(addr, 0, "thread never ran");
    addr
}

/// Whether `addr` falls within the default-sized stack whose interior
/// point `mark` was recorded earlier. Cached stacks stay mapped, so a
/// fresh `mmap` can never land inside one of these ranges — overlap
/// proves the mapping itself was reused.
fn same_stack(addr: usize, mark: usize) -> bool {
    mark.abs_diff(addr) < DEFAULT_STACK_SIZE
}

#[test]
fn steady_state_churn_recycles_threads_and_stacks() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // One pool LWP: every exit retires into the same magazine, so the
    // depot drains predictably once the warmup overflows it.
    threads::set_concurrency(1).expect("setconcurrency");

    let warmup: Vec<usize> = (0..WARMUP).map(|_| churn_one()).collect();

    trace::enable();
    let probes: Vec<usize> = (0..PROBES).map(|_| churn_one()).collect();
    trace::disable();

    let reused = probes
        .iter()
        .filter(|a| warmup.iter().any(|w| same_stack(**a, *w)))
        .count();
    assert!(
        reused >= 1,
        "none of {PROBES} post-warmup stacks landed in a warmup mapping: \
         probes={probes:x?} warmup={warmup:x?}"
    );

    // The magazines must report the recycling: MagazineHit a=1 is a
    // recycled thread structure, b=1 a recycled stack.
    let events = trace::drain();
    let thread_hits = events
        .iter()
        .filter(|e| e.tag == Tag::MagazineHit && e.a == 1)
        .count();
    let stack_hits = events
        .iter()
        .filter(|e| e.tag == Tag::MagazineHit && e.b == 1)
        .count();
    assert!(
        thread_hits >= 1,
        "{PROBES} creates after warmup never recycled a thread structure"
    );
    assert!(
        stack_hits >= 1,
        "{PROBES} creates after warmup never recycled a stack"
    );

    threads::set_concurrency(0).expect("setconcurrency(0)");
}

#[test]
fn recycled_stack_keeps_its_guard_page() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    threads::set_concurrency(1).expect("setconcurrency");

    let warmup: Vec<usize> = (0..WARMUP).map(|_| churn_one()).collect();
    let recycled = (0..PROBES)
        .map(|_| churn_one())
        .find(|a| warmup.iter().any(|w| same_stack(*a, *w)))
        .expect("no post-warmup thread reused a warmup stack");

    // The stack is parked in a magazine now, so its mapping is still
    // live in /proc/self/maps. The vma containing the recorded interior
    // point must sit directly above an inaccessible (`---p`) guard vma.
    let maps = std::fs::read_to_string("/proc/self/maps").expect("read maps");
    let mut regions = Vec::new();
    for line in maps.lines() {
        let (range, rest) = line.split_once(' ').expect("maps line");
        let (lo, hi) = range.split_once('-').expect("maps range");
        let lo = usize::from_str_radix(lo, 16).expect("maps lo");
        let hi = usize::from_str_radix(hi, 16).expect("maps hi");
        let perms = rest.split(' ').next().expect("maps perms");
        regions.push((lo, hi, perms.to_string()));
    }
    let &(lo, _, ref perms) = regions
        .iter()
        .find(|(lo, hi, _)| (*lo..*hi).contains(&recycled))
        .expect("recycled stack address not in any mapping");
    assert!(
        perms.starts_with("rw"),
        "stack vma is {perms}, not writable"
    );
    let guard = regions
        .iter()
        .find(|(_, hi, _)| *hi == lo)
        .expect("no vma directly below the recycled stack");
    assert!(
        guard.2.starts_with("---"),
        "vma below recycled stack is {}, not an inaccessible guard",
        guard.2
    );
    assert!(
        guard.1 - guard.0 >= PAGE_SIZE,
        "guard vma is smaller than a page"
    );

    threads::set_concurrency(0).expect("setconcurrency(0)");
}

/// The `"sched"` stat source's depot counts: `(stack_advises,
/// stack_depot_batches)`.
fn depot_counts() -> (u64, u64) {
    let snap = sunos_mt::stat::snapshot();
    let (_, sched) = snap
        .sources
        .iter()
        .find(|(name, _)| *name == "sched")
        .expect("sunmt::init registers the sched source");
    let get = |k: &str| {
        sched
            .iter()
            .find(|(n, _)| n == k)
            .unwrap_or_else(|| panic!("sched source has no {k}"))
            .1
    };
    (get("stack_advises"), get("stack_depot_batches"))
}

fn spawn_wait(f: impl FnOnce() + Send + 'static) -> ThreadId {
    ThreadBuilder::new()
        .flags(CreateFlags::WAIT)
        .spawn(f)
        .expect("spawn")
}

/// The `spawn_join` shape: 4 unbound forkers, each creating 32 children
/// and then joining them, `rounds` times.
fn fork_join(rounds: usize) {
    let forkers: Vec<ThreadId> = (0..4)
        .map(|_| {
            spawn_wait(move || {
                for _ in 0..rounds {
                    let kids: Vec<ThreadId> = (0..32).map(|_| spawn_wait(|| {})).collect();
                    for id in kids {
                        threads::wait(Some(id)).expect("join child");
                    }
                }
            })
        })
        .collect();
    for id in forkers {
        threads::wait(Some(id)).expect("join forker");
    }
}

#[test]
fn steady_churn_never_advises_its_working_set() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    threads::set_concurrency(2).expect("setconcurrency");

    fork_join(200);
    let (advises0, batches0) = depot_counts();
    const ROUNDS: usize = 2_000;
    fork_join(ROUNDS);
    let (advises1, batches1) = depot_counts();
    assert_eq!(
        advises1 - advises0,
        0,
        "steady churn advised stacks it keeps reusing ({} exchanges)",
        batches1 - batches0
    );

    threads::set_concurrency(0).expect("setconcurrency(0)");
}

#[test]
fn a_burst_then_quiet_returns_its_surplus() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    threads::set_concurrency(2).expect("setconcurrency");
    const BURST: usize = 512;

    let (advises0, _) = depot_counts();
    // All of the burst is alive at once, so it needs BURST stacks.
    let gate = Arc::new(Sema::new(0, SyncType::DEFAULT));
    let ids: Vec<ThreadId> = (0..BURST)
        .map(|_| {
            let g = Arc::clone(&gate);
            spawn_wait(move || g.p())
        })
        .collect();
    for _ in 0..BURST {
        gate.v();
    }
    for id in ids {
        threads::wait(Some(id)).expect("join");
    }
    // The pool is idle now; an idle LWP trims the depot within a couple
    // of trim periods.
    let deadline = Instant::now() + Duration::from_secs(20);
    while depot_counts().0 == advises0 {
        assert!(
            Instant::now() < deadline,
            "an idle pool never returned the burst's surplus stacks"
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    threads::set_concurrency(0).expect("setconcurrency(0)");
}
