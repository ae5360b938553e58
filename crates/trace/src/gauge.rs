//! Always-on statistics, counted per LWP.
//!
//! The counters behind `sunmt::stats()` and the `"chan"` / `"sched"` stat
//! sources run whether or not a tool has switched probes on, so they sit
//! on the hottest paths of the library: every dispatch, every channel send
//! and receive, every create. A process-wide counter word there is a cache
//! line that every LWP writes, which is exactly the cost the paper's
//! user-level operations are meant not to pay. So each statistic is a
//! [`Gauge`], and each LWP counts its gauges in a block of its own:
//!
//! - A block is a few cache lines of cells, one per gauge, and no ring.
//!   Each cell is written only by the LWP that holds the block, with a
//!   relaxed load and store; a gauge hit is one TLS load, a branch and that
//!   pair.
//! - An LWP takes a block on its first gauge hit: a recycled one if an
//!   exited LWP left one, a new one otherwise. A TLS destructor hands it
//!   back when the LWP exits, counts intact, so the registry holds no more
//!   blocks than the peak number of LWPs that were alive at once, and a
//!   total never loses what an exited LWP counted.
//! - Reads ([`totals`]) sum the blocks. A gauge that goes down as well as
//!   up ([`dec`]) wraps in one block and comes out right in the sum.

use std::cell::Cell;
use std::sync::atomic::AtomicU64;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::{Mutex, MutexGuard};

vocabulary! {
    /// One always-on statistic. The display name says which report
    /// carries it.
    pub enum Gauge: u8, NGAUGES {
        /// Channels currently alive (up at create, down at drop).
        Channels => "chan.channels",
        /// Messages committed to a channel.
        Sends => "chan.sends",
        /// Messages taken from a channel.
        Recvs => "chan.recvs",
        /// Receivers that parked on an empty channel.
        RecvParks => "chan.recv_parks",
        /// Senders that parked on a full channel.
        SendParks => "chan.send_parks",
        /// Unbounded sends that overflowed the ring into the spill queue.
        Spills => "chan.spills",
        /// Select calls that had to park.
        SelectWaits => "chan.select_waits",
        /// Select registrations fired by a send or a disconnect.
        SelectWakes => "chan.select_wakes",
        /// User-level dispatches.
        Dispatches => "sched.dispatches",
        /// Pool-growth events.
        PoolGrows => "sched.pool_grows",
        /// Timed user-level sleeps ended by their own deadline.
        TimeoutWakeups => "sched.timeout_wakeups",
        /// Parked pool LWPs unparked because a push handed them work.
        IdleWakes => "sched.idle_wakes",
        /// Threads switched out at a preemption tick.
        Preempts => "sched.preempts",
        /// Timeshare decay steps applied at preemption ticks.
        Decays => "sched.decays",
        /// Effective priority-inheritance boosts.
        PiBoosts => "sched.pi_boosts",
        /// Create-path services from a magazine or depot.
        MagazineHits => "sched.magazine_hits",
        /// Create-path services that allocated.
        MagazineMisses => "sched.magazine_misses",
        /// Kernel wakes skipped because no kernel thread was parked.
        FutexWakesAvoided => "sched.futex_wakes_avoided",
    }
}

/// One LWP's cells, aligned so no two blocks share a cache line.
#[repr(align(64))]
struct Cells([AtomicU64; NGAUGES]);

impl Cells {
    /// Adds `n` to `g`. The caller is the block's only writer: its owning
    /// LWP, or whoever holds the registry lock while the block is free.
    #[inline]
    fn bump(&self, g: Gauge, n: u64) {
        let c = &self.0[g as usize];
        c.store(c.load(Relaxed).wrapping_add(n), Relaxed);
    }
}

struct Registry {
    /// Every block ever made; totals sum them all.
    all: Vec<&'static Cells>,
    /// Blocks whose LWP exited, waiting for the next LWP's first hit.
    free: Vec<&'static Cells>,
}

fn registry() -> MutexGuard<'static, Registry> {
    static REGISTRY: Mutex<Registry> = Mutex::new(Registry {
        all: Vec::new(),
        free: Vec::new(),
    });
    REGISTRY.lock().unwrap_or_else(|e| e.into_inner())
}

/// Hands the calling LWP's block back to the registry when its TLS is torn
/// down.
struct Return;

impl Drop for Return {
    fn drop(&mut self) {
        if let Some(b) = MINE.with(Cell::take) {
            registry().free.push(b);
        }
    }
}

thread_local! {
    // `const` and drop-free, so a gauge hit from a late TLS destructor
    // still reads it (and finds it empty once `RETURN` has run).
    static MINE: Cell<Option<&'static Cells>> = const { Cell::new(None) };
    static RETURN: Return = const { Return };
}

/// Adds `n` to gauge `g` in the calling LWP's block.
#[inline]
fn add(g: Gauge, n: u64) {
    match MINE.with(Cell::get) {
        Some(b) => b.bump(g, n),
        None => add_first(g, n),
    }
}

/// Counts one event on gauge `g`.
#[inline]
pub fn inc(g: Gauge) {
    add(g, 1);
}

/// Takes one off gauge `g` (for gauges that count live objects).
#[inline]
pub fn dec(g: Gauge) {
    add(g, u64::MAX);
}

/// The calling LWP's first gauge hit: take a block and arrange for its
/// return. A hit from a TLS destructor that runs after `RETURN`'s borrows
/// a free block under the lock and gives it straight back.
#[cold]
#[inline(never)]
fn add_first(g: Gauge, n: u64) {
    let mut reg = registry();
    let b = match reg.free.pop() {
        Some(b) => b,
        None => {
            let b: &'static Cells =
                Box::leak(Box::new(Cells([const { AtomicU64::new(0) }; NGAUGES])));
            reg.all.push(b);
            b
        }
    };
    b.bump(g, n);
    // Touching `RETURN` registers its destructor; it fails only once that
    // destructor has run.
    if RETURN.try_with(|_| ()).is_ok() {
        MINE.with(|c| c.set(Some(b)));
    } else {
        reg.free.push(b);
    }
}

/// Every gauge's total, summed over the blocks when [`totals`] ran.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Totals([u64; NGAUGES]);

impl Totals {
    /// The total of `g`.
    pub fn get(&self, g: Gauge) -> u64 {
        self.0[g as usize]
    }
}

/// Sums every block. Each cell is read once with a relaxed load, so a
/// total taken while LWPs run can lag their latest hits, never run ahead
/// of them.
pub fn totals() -> Totals {
    let mut out = [0u64; NGAUGES];
    for b in &registry().all {
        for (o, c) in out.iter_mut().zip(&b.0) {
            *o = o.wrapping_add(c.load(Relaxed));
        }
    }
    Totals(out)
}

/// Blocks in the registry: at most the peak number of LWPs that held one
/// at the same time.
pub fn blocks() -> usize {
    registry().all.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_keep_what_exited_lwps_counted() {
        let before = totals().get(Gauge::Spills);
        let lwps: Vec<_> = (0..4)
            .map(|_| {
                std::thread::spawn(|| {
                    for _ in 0..1000 {
                        inc(Gauge::Spills);
                    }
                })
            })
            .collect();
        for t in lwps {
            t.join().unwrap();
        }
        assert_eq!(totals().get(Gauge::Spills) - before, 4000);
    }

    #[test]
    fn a_gauge_counted_down_on_another_lwp_sums_to_zero() {
        let before = totals().get(Gauge::Channels);
        inc(Gauge::Channels);
        std::thread::spawn(|| dec(Gauge::Channels)).join().unwrap();
        assert_eq!(totals().get(Gauge::Channels), before);
    }

    #[test]
    fn sequential_lwps_reuse_one_block() {
        // Warm up: this thread and one exited thread each hold a block.
        inc(Gauge::Decays);
        std::thread::spawn(|| inc(Gauge::Decays)).join().unwrap();
        let n = blocks();
        for _ in 0..50 {
            std::thread::spawn(|| inc(Gauge::Decays)).join().unwrap();
        }
        // Other tests of this binary may hold a few blocks concurrently.
        assert!(
            blocks() <= n + 8,
            "{} blocks after 50 sequential LWPs",
            blocks()
        );
    }
}
