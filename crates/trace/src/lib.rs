//! TNF-style tracing for the threads library (paper §6's `tnfprobes`),
//! and the record side of its statistics.
//!
//! SunOS shipped its MT library with always-present trace points that cost
//! almost nothing until a tool enables them, then stream fixed-size binary
//! records into per-thread buffers merged offline. This crate is that
//! design for the reproduction, and the only place a probe records:
//!
//! - One switch word holds two bits. [`COUNTING`] (set by
//!   `sunmt_stat::enable`) makes probes count their tag and histograms
//!   record; [`TRACING`] (set by [`enable`]) makes probes also write the
//!   ring. With both off, [`probe!`] is one relaxed load and a predicted
//!   branch.
//! - An LWP gets one block on its first recorded probe: its event
//!   [`ring::Ring`], per-tag counters and histogram cells, all written
//!   only by that LWP and kept in one registry. An LWP that never records
//!   allocates nothing.
//! - Events are stamped with [`clock::now_cycles`] (one `rdtsc` on
//!   x86_64). [`drain`] merges every LWP's ring by stamp and converts the
//!   stamps to CLOCK_MONOTONIC nanoseconds; [`render`] prints a
//!   human-readable dump, [`export_chrome`] emits Chrome `trace_event`
//!   JSON, and [`counters`] sums the per-LWP counts (which see every probe
//!   hit, including events later overwritten in a full ring).
//! - `sunmt-stat` is the read side: it merges the counters and
//!   histograms ([`hists`]) with its lock-site table into reports.
//! - The always-on statistics behind `sunmt::stats()` and the stat
//!   sources need no switch at all: [`gauge`] counts them in a small
//!   block per LWP, recycled when the LWP exits.
//!
//! The crate deliberately depends only on `sunmt-sys` so every layer above
//! it (sync, lwp, core, io, chan) can host probes without a dependency
//! cycle.

#![deny(missing_docs)]

/// Declares a probe vocabulary from one list: the enum (discriminants in
/// list order), its length, its `ALL` table indexed by discriminant and
/// each variant's stable display name.
macro_rules! vocabulary {
    (
        $(#[$meta:meta])*
        pub enum $ty:ident: $repr:ident, $n:ident {
            $( $(#[$doc:meta])* $name:ident => $text:literal, )*
        }
    ) => {
        $(#[$meta])*
        #[repr($repr)]
        #[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
        pub enum $ty {
            $( $(#[$doc])* $name, )*
        }

        #[doc = concat!("Number of [`", stringify!($ty), "`] variants.")]
        pub const $n: usize = [$($text),*].len();

        impl $ty {
            /// Every variant, indexed by discriminant.
            pub const ALL: [$ty; $n] = [$($ty::$name),*];

            /// Display name (stable).
            pub fn name(self) -> &'static str {
                match self {
                    $($ty::$name => $text,)*
                }
            }
        }
    };
}

pub mod chrome;
pub mod clock;
pub mod gauge;
pub mod hist;
pub mod ring;
pub mod tag;

use std::cell::Cell;
use std::sync::atomic::AtomicU64;
use std::sync::atomic::Ordering::{Acquire, Relaxed, Release, SeqCst};
use std::sync::{Mutex, MutexGuard};

pub use chrome::export_chrome;
pub use gauge::{Gauge, NGAUGES};
pub use hist::{Hist, Hs, Unit, NBUCKETS, NHISTS};
pub use tag::{Tag, NTAGS};

use hist::HistCells;
use ring::Ring;

/// One trace record, fixed-size by construction.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Event {
    /// CLOCK_MONOTONIC nanoseconds (stamped in cycles, converted by
    /// [`drain`]).
    pub ts_ns: u64,
    /// Kernel thread (LWP) id that emitted the event.
    pub lwp: u32,
    /// User thread id running on that LWP (0 if none/unknown).
    pub thread: u32,
    /// What happened.
    pub tag: Tag,
    /// First payload word (meaning per [`Tag`]).
    pub a: u64,
    /// Second payload word.
    pub b: u64,
}

/// Aggregate per-tag event totals for one tracing epoch.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Counters {
    counts: [u64; NTAGS],
}

// `[u64; N]: Default` stops at N = 32, which NTAGS now exceeds.
impl Default for Counters {
    fn default() -> Counters {
        Counters { counts: [0; NTAGS] }
    }
}

impl Counters {
    /// Probe hits for `tag` in the current epoch.
    pub fn get(&self, tag: Tag) -> u64 {
        self.counts[tag as usize]
    }

    /// All events across tags.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// `(tag, count)` for every tag with a nonzero count.
    pub fn nonzero(&self) -> impl Iterator<Item = (Tag, u64)> + '_ {
        Tag::ALL
            .iter()
            .map(|t| (*t, self.get(*t)))
            .filter(|(_, n)| *n > 0)
    }

    /// Renders a one-line-per-tag summary.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (t, n) in self.nonzero() {
            let _ = writeln!(out, "{:<16} {n:>10}", t.name());
        }
        out
    }
}

// ---------------------------------------------------------------------
// The switch word and the per-LWP blocks.

/// Switch bit: probes count their tag and histograms record.
pub const COUNTING: u64 = 1;

/// Switch bit: probes also write their LWP's ring.
pub const TRACING: u64 = 2;

/// The bits above the two switches number the epoch.
const EPOCH_SHIFT: u32 = 2;

/// The word every probe reads: [`COUNTING`] | [`TRACING`] in the low
/// bits, the epoch above them.
static SWITCH: AtomicU64 = AtomicU64::new(0);

/// Cycle stamp at which the current epoch started; [`drain`] ignores
/// older ring contents.
static EPOCH_START: AtomicU64 = AtomicU64::new(u64::MAX);

/// One LWP's record-side state. Every cell is written only by the owning
/// LWP; readers race benignly with relaxed loads.
struct Block {
    lwp: u32,
    /// Epoch the counters and histogram cells belong to. The owner zeroes
    /// them on its first record in an epoch and then publishes the epoch
    /// with `Release`; readers load it with `Acquire` before the cells, so
    /// a reset never races a write and a reader never sees pre-reset
    /// values under the new epoch.
    epoch: AtomicU64,
    counts: [AtomicU64; NTAGS],
    hists: [HistCells; NHISTS],
    ring: Ring,
}

/// Every block ever made, kept after its LWP exits so readers still see
/// its tail.
fn registry() -> MutexGuard<'static, Vec<&'static Block>> {
    static REGISTRY: Mutex<Vec<&'static Block>> = Mutex::new(Vec::new());
    REGISTRY.lock().unwrap_or_else(|e| e.into_inner())
}

thread_local! {
    // Both cells are `const` and drop-free, so a probe fired from another
    // TLS destructor (the LWP-exit probe) still finds them.
    static BLOCK: Cell<Option<&'static Block>> = const { Cell::new(None) };
    static THREAD: Cell<u32> = const { Cell::new(0) };
}

impl Block {
    /// The calling LWP's block for `epoch`: made on the LWP's first
    /// recorded probe, and restarted when it last recorded in an older
    /// epoch.
    #[inline]
    fn mine(epoch: u64) -> &'static Block {
        let b = BLOCK.with(Cell::get).unwrap_or_else(Block::register);
        if b.epoch.load(Relaxed) != epoch {
            b.restart(epoch);
        }
        b
    }

    #[cold]
    fn register() -> &'static Block {
        let b: &'static Block = Box::leak(Box::new(Block {
            lwp: sunmt_sys::task::gettid(),
            epoch: AtomicU64::new(0),
            counts: [const { AtomicU64::new(0) }; NTAGS],
            hists: [const { HistCells::new() }; NHISTS],
            ring: Ring::new(),
        }));
        registry().push(b);
        BLOCK.with(|c| c.set(Some(b)));
        b
    }

    #[cold]
    fn restart(&self, epoch: u64) {
        for c in &self.counts {
            c.store(0, Relaxed);
        }
        for h in &self.hists {
            h.reset();
        }
        self.epoch.store(epoch, Release);
    }
}

/// Whether probes currently record: true while either switch bit is on,
/// so also while only `sunmt_stat` counts. This is the entire
/// disabled-probe cost: one relaxed load and a branch.
#[inline(always)]
pub fn enabled() -> bool {
    SWITCH.load(Relaxed) & (COUNTING | TRACING) != 0
}

/// Whether the [`COUNTING`] bit is on, which gates histograms.
#[inline(always)]
pub fn counting() -> bool {
    SWITCH.load(Relaxed) & COUNTING != 0
}

/// Records one probe hit: counts `tag` in the calling LWP's block and,
/// while [`TRACING`] is on, writes the event into its ring. Called by
/// [`probe!`] after its [`enabled`] check; callable directly when the
/// caller has already tested [`enabled`].
#[inline]
pub fn emit(tag: Tag, a: u64, b: u64) {
    let w = SWITCH.load(Relaxed);
    let blk = Block::mine(w >> EPOCH_SHIFT);
    let c = &blk.counts[tag as usize];
    c.store(c.load(Relaxed).wrapping_add(1), Relaxed);
    if w & TRACING != 0 {
        let thread = THREAD.with(Cell::get);
        blk.ring
            .push(clock::now_cycles(), blk.lwp, thread, tag, a, b);
    }
}

/// Tells the tracer which user thread now runs on the calling LWP, so
/// subsequent events carry its id. The core scheduler calls this at every
/// dispatch; 0 means "no user thread". Allocates nothing.
#[inline]
pub fn set_current_thread(id: u32) {
    THREAD.with(|c| c.set(id));
}

/// Emits a trace event if probes are on.
///
/// `probe!(Tag::X)`, `probe!(Tag::X, a)` and `probe!(Tag::X, a, b)` all
/// work; payloads are cast to `u64`. The macro body is a single branch on
/// [`enabled`], so a disabled probe costs a relaxed load.
#[macro_export]
macro_rules! probe {
    ($tag:expr) => {
        $crate::probe!($tag, 0u64, 0u64)
    };
    ($tag:expr, $a:expr) => {
        $crate::probe!($tag, $a, 0u64)
    };
    ($tag:expr, $a:expr, $b:expr) => {
        if $crate::enabled() {
            $crate::emit($tag, ($a) as u64, ($b) as u64);
        }
    };
}

/// Records one histogram observation while [`COUNTING`] is on; otherwise
/// one relaxed load and a branch.
#[inline(always)]
pub fn record(h: Hs, v: u64) {
    let w = SWITCH.load(Relaxed);
    if w & COUNTING != 0 {
        record_in(w, h, v);
    }
}

/// The enabled half of [`record`], kept out of line so only the check
/// inlines into callers.
#[inline(never)]
fn record_in(w: u64, h: Hs, v: u64) {
    Block::mine(w >> EPOCH_SHIFT).hists[h as usize].record(v);
}

/// Cycle timestamp for a latency interval, or 0 while [`COUNTING`] is
/// off. Pair with [`record_since`]; a 0 start makes the pair free.
#[inline(always)]
pub fn tick() -> u64 {
    if counting() {
        // `| 1` so a (theoretical) zero cycle reading still arms the pair.
        clock::now_cycles() | 1
    } else {
        0
    }
}

/// Closes a latency interval opened by [`tick`]: records `now - t0` into
/// `h`. No-op when `t0 == 0` (counting was off at the start) or counting
/// is off now.
#[inline]
pub fn record_since(h: Hs, t0: u64) {
    if t0 != 0 && counting() {
        record(h, clock::now_cycles().saturating_sub(t0));
    }
}

// ---------------------------------------------------------------------
// Control and the read side.

/// Turns a switch bit on. The counters and histograms are one window
/// shared by both bits: it restarts (each LWP zeroes its own cells on its
/// next record) only when the other bit is off, so turning on the second
/// switch never wipes the first one's counts. Turning on [`TRACING`]
/// also hides older ring contents from [`drain`].
pub fn switch_on(bit: u64) {
    if bit == TRACING {
        EPOCH_START.store(clock::now_cycles(), SeqCst);
    }
    let _ = SWITCH.fetch_update(SeqCst, SeqCst, |w| {
        let other_off = w & (COUNTING | TRACING) & !bit == 0;
        Some((w + (u64::from(other_off) << EPOCH_SHIFT)) | bit)
    });
}

/// Turns a switch bit off. The epoch's data stays readable.
pub fn switch_off(bit: u64) {
    SWITCH.fetch_and(!bit, SeqCst);
}

/// Starts a tracing window ([`switch_on`]`(`[`TRACING`]`)`): hides stale
/// ring contents from [`drain`] and turns probes on. The per-tag
/// [`counters`] are shared with `sunmt_stat`: they restart here unless
/// statistics are already on, in which case they keep counting from
/// `sunmt_stat::enable`.
pub fn enable() {
    switch_on(TRACING);
}

/// Turns tracing off. Ring contents and counters stay readable.
pub fn disable() {
    switch_off(TRACING);
}

/// The blocks whose cells belong to the current epoch; a block whose LWP
/// has not recorded since the epoch began still holds older data.
fn current_blocks() -> Vec<&'static Block> {
    let epoch = SWITCH.load(SeqCst) >> EPOCH_SHIFT;
    let mut blocks = registry().clone();
    blocks.retain(|b| b.epoch.load(Acquire) == epoch);
    blocks
}

/// Collects every LWP's ring and merges the current epoch's events into a
/// single timeline ordered by timestamp (ties broken by LWP id, then by
/// per-ring push order), with stamps converted to nanoseconds. Rings are
/// not cleared; the next epoch hides them instead.
pub fn drain() -> Vec<Event> {
    let since = EPOCH_START.load(SeqCst);
    let blocks = registry().clone();
    let mut out = Vec::new();
    for b in &blocks {
        b.ring.collect_into(since, &mut out);
    }
    // Stable sort: per-ring push order survives for equal (ts, lwp).
    out.sort_by_key(|e| (e.ts_ns, e.lwp));
    // Each stamp's age in cycles, scaled, back from a paired reading of
    // both clocks taken now.
    let (c, n) = (clock::now_cycles(), clock::monotonic_ns());
    for e in &mut out {
        e.ts_ns = n.saturating_sub(clock::cycles_to_ns(c.saturating_sub(e.ts_ns)) as u64);
    }
    out
}

/// Total events overwritten before they could be drained, summed across
/// every LWP's ring. A nonzero value means the timeline from [`drain`] has
/// holes; scrapers read it through `sunmt-stat`'s report surfaces.
pub fn dropped() -> u64 {
    registry().iter().map(|b| b.ring.dropped()).sum()
}

/// The per-tag totals for the current epoch, summed across LWPs.
pub fn counters() -> Counters {
    let mut c = Counters::default();
    for b in current_blocks() {
        for (o, n) in c.counts.iter_mut().zip(&b.counts) {
            *o += n.load(Relaxed);
        }
    }
    c
}

/// The current epoch's histograms, merged across LWPs and indexed like
/// [`Hs::ALL`], in raw units (see [`Hs::unit`]).
pub fn hists() -> Vec<Hist> {
    let mut out = vec![Hist::default(); NHISTS];
    for b in current_blocks() {
        for (o, h) in out.iter_mut().zip(&b.hists) {
            h.add_into(o);
        }
    }
    out
}

/// Renders events as a human-readable dump, one line per event, with
/// timestamps in microseconds relative to the first event.
pub fn render(events: &[Event]) -> String {
    use std::fmt::Write as _;
    let base = events.first().map_or(0, |e| e.ts_ns);
    let mut out = String::new();
    for e in events {
        let us = (e.ts_ns - base) as f64 / 1_000.0;
        let _ = writeln!(
            out,
            "[{us:>12.3}us] lwp {:<6} thr {:<6} {:<14} a={:#x} b={:#x}",
            e.lwp,
            e.thread,
            e.tag.name(),
            e.a,
            e.b
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    // The trace globals are process-wide, so the unit tests that toggle
    // them serialize on one lock.
    fn test_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        // A failing test must not cascade poison into the others.
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_probe_records_nothing() {
        let _g = test_lock();
        disable();
        let before = counters().get(Tag::Wakeup);
        probe!(Tag::Wakeup, 1, 2);
        assert_eq!(counters().get(Tag::Wakeup), before);
    }

    #[test]
    fn counters_are_accurate_and_survive_ring_overwrite() {
        let _g = test_lock();
        enable();
        let n = ring::RING_CAP as u64 + 321;
        for i in 0..n {
            probe!(Tag::RunqPush, i);
        }
        probe!(Tag::PoolGrow, 2);
        disable();
        let c = counters();
        assert_eq!(
            c.get(Tag::RunqPush),
            n,
            "counter must see overwritten events"
        );
        assert_eq!(c.get(Tag::PoolGrow), 1);
        assert_eq!(c.total(), n + 1);
        // The ring only holds the newest CAP events; the final PoolGrow
        // evicted one RunqPush.
        let events = drain();
        assert_eq!(events.len(), ring::RING_CAP);
        let pushes = events.iter().filter(|e| e.tag == Tag::RunqPush).count();
        assert_eq!(pushes, ring::RING_CAP - 1);
        assert_eq!(events.last().unwrap().tag, Tag::PoolGrow);
    }

    #[test]
    fn drain_merges_across_lwps_in_timestamp_order() {
        let _g = test_lock();
        enable();
        let mut handles = Vec::new();
        for t in 0..3u32 {
            handles.push(std::thread::spawn(move || {
                set_current_thread(100 + t);
                for i in 0..500u64 {
                    probe!(Tag::Dispatch, i);
                    if i % 64 == 0 {
                        std::thread::yield_now();
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        disable();
        let events = drain();
        let lwps: std::collections::HashSet<u32> = events.iter().map(|e| e.lwp).collect();
        assert!(lwps.len() >= 3, "expected events from 3 LWPs, got {lwps:?}");
        for w in events.windows(2) {
            assert!(
                w[1].ts_ns >= w[0].ts_ns,
                "merge must be non-decreasing in time"
            );
        }
        assert!(events
            .iter()
            .filter(|e| e.tag == Tag::Dispatch)
            .all(|e| (100..103).contains(&e.thread)));
    }

    #[test]
    fn enable_epoch_hides_previous_runs() {
        let _g = test_lock();
        enable();
        probe!(Tag::Sleep, 7);
        disable();
        assert!(drain().iter().any(|e| e.tag == Tag::Sleep && e.a == 7));
        // A fresh epoch must not resurface the old event.
        enable();
        disable();
        assert!(
            !drain().iter().any(|e| e.tag == Tag::Sleep && e.a == 7),
            "stale pre-epoch event leaked into drain()"
        );
    }

    #[test]
    fn render_formats_one_line_per_event() {
        let events = [
            Event {
                ts_ns: 1_000,
                lwp: 5,
                thread: 9,
                tag: Tag::Dispatch,
                a: 9,
                b: 0,
            },
            Event {
                ts_ns: 2_500,
                lwp: 5,
                thread: 9,
                tag: Tag::SwitchOut,
                a: 9,
                b: 1,
            },
        ];
        let s = render(&events);
        assert_eq!(s.lines().count(), 2);
        assert!(s.contains("dispatch"));
        assert!(s.contains("switch-out"));
        assert!(s.contains("1.500us"), "relative timestamp missing:\n{s}");
    }

    #[test]
    fn drained_stamps_are_nanoseconds_not_cycles() {
        let _g = test_lock();
        // A preemption inside the bracket rightly stretches the drained
        // gap, so retry until one bracket takes under 3 ms of wall time.
        for _ in 0..100 {
            enable();
            let m0 = clock::monotonic_ns();
            probe!(Tag::Continue, 1);
            let t0 = clock::monotonic_ns();
            while clock::monotonic_ns() < t0 + 2_000_000 {
                std::hint::spin_loop();
            }
            probe!(Tag::Continue, 2);
            disable();
            if clock::monotonic_ns() - m0 < 3_000_000 {
                break;
            }
        }
        let mut ev = drain();
        ev.retain(|e| e.tag == Tag::Continue);
        let gap = ev[1].ts_ns - ev[0].ts_ns;
        assert!(
            (1_000_000..=4_000_000).contains(&gap),
            "a 2 ms spin drained as {gap} ns apart"
        );
    }

    #[test]
    fn counting_alone_counts_and_writes_no_ring_event() {
        let _g = test_lock();
        disable();
        switch_on(COUNTING);
        probe!(Tag::SignalDeliver, 9);
        record(Hs::BenchLat, 100);
        switch_off(COUNTING);
        assert_eq!(counters().get(Tag::SignalDeliver), 1);
        assert_eq!(hists()[Hs::BenchLat as usize].count(), 1);
        assert!(
            drain().iter().all(|e| e.tag != Tag::SignalDeliver),
            "a counting-only probe wrote the ring"
        );
    }

    #[test]
    fn the_second_switch_keeps_the_first_ones_window() {
        let _g = test_lock();
        let unparks = || drain().iter().filter(|e| e.tag == Tag::LwpUnpark).count();
        enable();
        probe!(Tag::LwpUnpark);
        switch_on(COUNTING);
        probe!(Tag::LwpUnpark);
        assert_eq!(unparks(), 2, "turning counting on hid trace events");
        disable();
        enable();
        probe!(Tag::LwpUnpark);
        disable();
        switch_off(COUNTING);
        assert_eq!(counters().get(Tag::LwpUnpark), 3, "counts were wiped");
        assert_eq!(unparks(), 1, "re-enabling tracing must hide older events");
    }

    #[test]
    fn a_new_epoch_restarts_counts_and_hists_on_every_lwp() {
        let _g = test_lock();
        switch_on(COUNTING);
        std::thread::spawn(|| {
            probe!(Tag::PiBoost);
            record(Hs::BenchLat, 7);
        })
        .join()
        .unwrap();
        probe!(Tag::PiBoost);
        switch_off(COUNTING);
        assert_eq!(counters().get(Tag::PiBoost), 2);
        assert_eq!(hists()[Hs::BenchLat as usize].count(), 1);
        // The spawned LWP is gone and never records again: its stale
        // cells must not leak into the next epoch.
        switch_on(COUNTING);
        probe!(Tag::PiBoost);
        switch_off(COUNTING);
        assert_eq!(counters().get(Tag::PiBoost), 1);
        assert_eq!(hists()[Hs::BenchLat as usize].count(), 0);
    }

    #[test]
    fn histograms_record_only_while_counting() {
        let _g = test_lock();
        enable();
        record(Hs::BenchLat, 5);
        assert_eq!(tick(), 0, "tracing alone must not arm a latency pair");
        disable();
        assert_eq!(hists()[Hs::BenchLat as usize].count(), 0);
    }

    #[test]
    fn probe_macro_accepts_one_two_or_three_args() {
        let _g = test_lock();
        enable();
        probe!(Tag::Stop);
        probe!(Tag::Stop, 1u32);
        probe!(Tag::Stop, 1u32, 2usize);
        disable();
        assert_eq!(counters().get(Tag::Stop), 3);
    }
}
