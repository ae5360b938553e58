//! lockstat/mpstat-style aggregate statistics for the threads library.
//!
//! `sunmt-trace` answers "what happened, in order"; this crate answers
//! "how much and how long" without replaying an event log — the split
//! Solaris shipped as `tnfprobes` vs `lockstat`/`mpstat`. The design
//! mirrors the `probe!` discipline exactly:
//!
//! - Every probe starts with one relaxed load of a global flag plus a
//!   predicted branch ([`enabled`]); the crate's `off` feature turns the
//!   flag into a constant `false` the optimizer deletes together with the
//!   probe body.
//! - Enabled counters and histograms write into a per-LWP block
//!   (registered in a global list, merged only at snapshot time), so the
//!   hot path is a thread-local load/add/store with no shared-line
//!   contention.
//! - Latency probes timestamp with [`sunmt_trace::clock::now_cycles`]
//!   (one `rdtsc`) and store raw cycles; conversion to nanoseconds
//!   happens once, at report time.
//! - Per-lock-site contention lives in [`lock`]: a fixed open-addressed
//!   table keyed by lock word address, claimed by CAS, updated with
//!   relaxed adds — the `lockstat` idiom.
//!
//! Results come out three ways: [`stats_report`] (human lockstat-style
//! tables), [`prometheus`] (text exposition), and [`snapshot_json`]
//! (machine-readable snapshot). Subsystems that keep their own always-on
//! counters (scheduler shards, poller) publish them through
//! [`register_source`] so every exposition includes them.

#![deny(missing_docs)]

pub mod hist;
pub mod lock;
pub mod report;

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex, OnceLock};

pub use hist::{Hist, NBUCKETS};
pub use lock::LockSnapshot;
pub use report::{prometheus, snapshot_json, stats_report};

/// Monotonic counter vocabulary. Extend by adding a variant and its row
/// in [`Ctr::ALL`]/[`Ctr::name`]; the indexed-array test keeps them
/// aligned.
#[repr(usize)]
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Ctr {
    /// `cv_broadcast` woke every waiter.
    CvWakeAll = 0,
    /// `cv_signal` handoffs observed by the stat layer.
    CvSignal = 1,
    /// Calibration counter for the `abl_stat_overhead` bench; never
    /// incremented by the library itself.
    BenchProbe = 2,
}

/// Number of counters.
pub const NCTRS: usize = 3;

impl Ctr {
    /// Every counter, indexed by discriminant.
    pub const ALL: [Ctr; NCTRS] = [Ctr::CvWakeAll, Ctr::CvSignal, Ctr::BenchProbe];

    /// Exposition name (`snake_case`, stable).
    pub fn name(self) -> &'static str {
        match self {
            Ctr::CvWakeAll => "cv_wake_all",
            Ctr::CvSignal => "cv_signal",
            Ctr::BenchProbe => "bench_probe",
        }
    }
}

/// What a histogram's recorded values mean, which fixes how reports
/// convert them for display.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Unit {
    /// Raw cycle deltas from [`sunmt_trace::clock::now_cycles`]; reports
    /// convert to nanoseconds.
    Cycles,
    /// Dimensionless counts (e.g. spin iterations); reported as-is.
    Count,
}

/// Latency/size histogram vocabulary.
#[repr(usize)]
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Hs {
    /// Runnable-to-dispatched wait: `push_runnable` to `run_one` pickup.
    RunqWait = 0,
    /// Mutex hold time (acquire to release), all sites merged.
    MutexHold = 1,
    /// Mutex block time (contended entry to acquire), all sites merged.
    MutexBlock = 2,
    /// Adaptive-mutex spin iterations per contended entry.
    MutexSpin = 3,
    /// I/O wait: thread parks for readiness until woken.
    IoWait = 4,
    /// Poller residence in `epoll_wait`.
    PollerWait = 5,
    /// Calibration histogram for the `abl_stat_overhead` bench.
    BenchLat = 6,
    /// Channel send latency (call to slot committed), all channels merged.
    ChanSend = 7,
    /// Channel receive latency (call to message out, including any park).
    ChanRecv = 8,
    /// Channel queue depth observed after each send.
    ChanDepth = 9,
}

/// Number of histograms.
pub const NHISTS: usize = 10;

impl Hs {
    /// Every histogram, indexed by discriminant.
    pub const ALL: [Hs; NHISTS] = [
        Hs::RunqWait,
        Hs::MutexHold,
        Hs::MutexBlock,
        Hs::MutexSpin,
        Hs::IoWait,
        Hs::PollerWait,
        Hs::BenchLat,
        Hs::ChanSend,
        Hs::ChanRecv,
        Hs::ChanDepth,
    ];

    /// Exposition name (`snake_case`, stable).
    pub fn name(self) -> &'static str {
        match self {
            Hs::RunqWait => "runq_wait",
            Hs::MutexHold => "mutex_hold",
            Hs::MutexBlock => "mutex_block",
            Hs::MutexSpin => "mutex_spin",
            Hs::IoWait => "io_wait",
            Hs::PollerWait => "poller_wait",
            Hs::BenchLat => "bench_lat",
            Hs::ChanSend => "chan_send",
            Hs::ChanRecv => "chan_recv",
            Hs::ChanDepth => "chan_depth",
        }
    }

    /// What the recorded values are.
    pub fn unit(self) -> Unit {
        match self {
            Hs::MutexSpin | Hs::ChanDepth => Unit::Count,
            _ => Unit::Cycles,
        }
    }
}

// ---------------------------------------------------------------------
// Per-LWP storage.

/// One histogram's atomic cells. Single-writer (the owning LWP) with
/// relaxed load+store increments; snapshot readers race benignly.
struct HistCells {
    buckets: [AtomicU64; NBUCKETS],
    sum: AtomicU64,
    max: AtomicU64,
}

impl HistCells {
    const fn new() -> HistCells {
        HistCells {
            buckets: [const { AtomicU64::new(0) }; NBUCKETS],
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    #[inline]
    fn record(&self, v: u64) {
        let b = &self.buckets[hist::bucket_of(v)];
        b.store(b.load(Relaxed).wrapping_add(1), Relaxed);
        self.sum
            .store(self.sum.load(Relaxed).saturating_add(v), Relaxed);
        if v > self.max.load(Relaxed) {
            self.max.store(v, Relaxed);
        }
    }

    fn snapshot_into(&self, out: &mut Hist) {
        for (o, b) in out.buckets.iter_mut().zip(self.buckets.iter()) {
            *o += b.load(Relaxed);
        }
        out.sum = out.sum.saturating_add(self.sum.load(Relaxed));
        out.max = out.max.max(self.max.load(Relaxed));
    }

    fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Relaxed);
        }
        self.sum.store(0, Relaxed);
        self.max.store(0, Relaxed);
    }
}

/// One LWP's stat block.
struct Block {
    counters: [AtomicU64; NCTRS],
    hists: [HistCells; NHISTS],
}

impl Block {
    fn new() -> Block {
        Block {
            counters: [const { AtomicU64::new(0) }; NCTRS],
            hists: [const { HistCells::new() }; NHISTS],
        }
    }
}

/// Every LWP's block, kept alive after LWP exit so snapshots still see
/// its tail (same lifetime rule as the trace rings).
fn registry() -> &'static Mutex<Vec<Arc<Block>>> {
    static REGISTRY: OnceLock<Mutex<Vec<Arc<Block>>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

thread_local! {
    static BLOCK: Arc<Block> = {
        let b = Arc::new(Block::new());
        registry().lock().expect("stat registry").push(Arc::clone(&b));
        b
    };
}

/// Global on/off switch, read by every probe.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Whether stat probes currently record. This is the entire
/// disabled-probe cost: one relaxed load and a branch (a constant `false`
/// under the `off` feature, which deletes the probe body outright).
#[inline(always)]
pub fn enabled() -> bool {
    if cfg!(feature = "off") {
        return false;
    }
    ENABLED.load(Relaxed)
}

/// Adds `n` to a counter. Called by [`stat_count!`] after its [`enabled`]
/// check; callable directly when the caller already tested it.
#[inline]
pub fn add(c: Ctr, n: u64) {
    let _ = BLOCK.try_with(|b| {
        let cell = &b.counters[c as usize];
        cell.store(cell.load(Relaxed).wrapping_add(n), Relaxed);
    });
}

/// Records one histogram observation. Called by [`stat_record!`] after
/// its [`enabled`] check.
#[inline]
pub fn record(h: Hs, v: u64) {
    let _ = BLOCK.try_with(|b| b.hists[h as usize].record(v));
}

/// Cycle timestamp for a latency interval, or 0 while stats are
/// disabled. Pair with [`record_since`]; a 0 start makes the pair free.
#[inline(always)]
pub fn tick() -> u64 {
    if enabled() {
        // `| 1` so a (theoretical) zero cycle reading still arms the pair.
        sunmt_trace::clock::now_cycles() | 1
    } else {
        0
    }
}

/// Closes a latency interval opened by [`tick`]: records `now - t0` into
/// `h`. No-op when `t0 == 0` (stats were off at the start) or stats are
/// off now.
#[inline]
pub fn record_since(h: Hs, t0: u64) {
    if t0 != 0 && enabled() {
        record(h, sunmt_trace::clock::now_cycles().saturating_sub(t0));
    }
}

/// Increments a counter if stats are enabled.
///
/// `stat_count!(Ctr::X)` adds 1; `stat_count!(Ctr::X, n)` adds `n`. The
/// macro body is a single branch on [`enabled`].
#[macro_export]
macro_rules! stat_count {
    ($c:expr) => {
        $crate::stat_count!($c, 1u64)
    };
    ($c:expr, $n:expr) => {
        if $crate::enabled() {
            $crate::add($c, ($n) as u64);
        }
    };
}

/// Records a histogram observation if stats are enabled.
#[macro_export]
macro_rules! stat_record {
    ($h:expr, $v:expr) => {
        if $crate::enabled() {
            $crate::record($h, ($v) as u64);
        }
    };
}

// ---------------------------------------------------------------------
// External gauge sources.

/// A named set of externally maintained gauges, sampled at snapshot time.
pub type SourceFn = fn() -> Vec<(String, u64)>;

fn sources() -> &'static Mutex<Vec<(&'static str, SourceFn)>> {
    static SOURCES: OnceLock<Mutex<Vec<(&'static str, SourceFn)>>> = OnceLock::new();
    SOURCES.get_or_init(|| Mutex::new(Vec::new()))
}

/// Registers (or replaces) a named gauge source. Subsystems with their
/// own always-on counters — scheduler shards, the poller — register here
/// once at init so every report/exposition includes them without this
/// crate depending on those layers.
pub fn register_source(name: &'static str, f: SourceFn) {
    let mut v = sources().lock().expect("stat sources");
    if let Some(slot) = v.iter_mut().find(|(n, _)| *n == name) {
        slot.1 = f;
    } else {
        v.push((name, f));
    }
}

// ---------------------------------------------------------------------
// Control and snapshot.

/// Starts a statistics epoch: zeroes every per-LWP block and the lock
/// table, then turns probes on.
pub fn enable() {
    for b in registry().lock().expect("stat registry").iter() {
        for c in &b.counters {
            c.store(0, Relaxed);
        }
        for h in &b.hists {
            h.reset();
        }
    }
    lock::reset();
    ENABLED.store(true, std::sync::atomic::Ordering::SeqCst);
}

/// Turns probes off. Accumulated data stays readable until the next
/// [`enable`].
pub fn disable() {
    ENABLED.store(false, std::sync::atomic::Ordering::SeqCst);
}

/// One histogram in a [`Snapshot`], with display-ready quantiles
/// (nanoseconds for [`Unit::Cycles`] histograms, raw values otherwise).
#[derive(Clone, Debug)]
pub struct HistView {
    /// Which histogram.
    pub hs: Hs,
    /// Merged raw-value histogram (cycles or counts per [`Hs::unit`]).
    pub raw: Hist,
    /// Observations.
    pub count: u64,
    /// Mean in display units.
    pub mean: f64,
    /// Median estimate in display units.
    pub p50: f64,
    /// 90th percentile estimate in display units.
    pub p90: f64,
    /// 99th percentile estimate in display units.
    pub p99: f64,
    /// Largest observation in display units.
    pub max: f64,
}

impl HistView {
    /// Display unit suffix (`"ns"` or `""`).
    pub fn unit_label(&self) -> &'static str {
        match self.hs.unit() {
            Unit::Cycles => "ns",
            Unit::Count => "",
        }
    }
}

/// A merged, display-ready copy of everything the crate tracks.
#[derive(Clone, Debug)]
pub struct Snapshot {
    /// Counter totals, indexed like [`Ctr::ALL`].
    pub counters: [u64; NCTRS],
    /// Histogram views, indexed like [`Hs::ALL`].
    pub hists: Vec<HistView>,
    /// Lock sites, sorted by total block time descending.
    pub locks: Vec<LockSnapshot>,
    /// Registered gauge sources, sampled now.
    pub sources: Vec<(&'static str, Vec<(String, u64)>)>,
    /// Trace events lost to ring overwrites (process lifetime total from
    /// [`sunmt_trace::dropped`]); nonzero means the trace timeline has
    /// holes and the rings need draining more often.
    pub trace_dropped: u64,
}

impl Snapshot {
    /// Counter total for `c`.
    pub fn counter(&self, c: Ctr) -> u64 {
        self.counters[c as usize]
    }

    /// Histogram view for `h`.
    pub fn hist(&self, h: Hs) -> &HistView {
        &self.hists[h as usize]
    }
}

/// Merges every per-LWP block, the lock table and the gauge sources into
/// one [`Snapshot`]. Safe to call while probes run (relaxed reads race
/// benignly with writers).
pub fn snapshot() -> Snapshot {
    let blocks: Vec<Arc<Block>> = registry().lock().expect("stat registry").clone();
    let mut counters = [0u64; NCTRS];
    let mut raw: Vec<Hist> = (0..NHISTS).map(|_| Hist::default()).collect();
    for b in &blocks {
        for (i, c) in b.counters.iter().enumerate() {
            counters[i] = counters[i].wrapping_add(c.load(Relaxed));
        }
        for (i, h) in b.hists.iter().enumerate() {
            h.snapshot_into(&mut raw[i]);
        }
    }
    let hists = raw
        .into_iter()
        .zip(Hs::ALL.iter())
        .map(|(h, &hs)| {
            let to_disp = |v: f64| match hs.unit() {
                Unit::Cycles => v * sunmt_trace::clock::ns_per_cycle(),
                Unit::Count => v,
            };
            HistView {
                hs,
                count: h.count(),
                mean: to_disp(h.mean()),
                p50: to_disp(h.quantile(0.50)),
                p90: to_disp(h.quantile(0.90)),
                p99: to_disp(h.quantile(0.99)),
                max: to_disp(h.max as f64),
                raw: h,
            }
        })
        .collect();
    let sources = sources()
        .lock()
        .expect("stat sources")
        .iter()
        .map(|(n, f)| (*n, f()))
        .collect();
    Snapshot {
        counters,
        hists,
        locks: lock::snapshot(),
        sources,
        trace_dropped: sunmt_trace::dropped(),
    }
}

#[cfg(test)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vocabularies_are_indexed_by_discriminant() {
        for (i, c) in Ctr::ALL.iter().enumerate() {
            assert_eq!(*c as usize, i);
        }
        for (i, h) in Hs::ALL.iter().enumerate() {
            assert_eq!(*h as usize, i);
        }
    }

    #[test]
    fn disabled_probes_cost_nothing_and_record_nothing() {
        let _g = test_lock();
        enable();
        disable();
        stat_count!(Ctr::BenchProbe);
        stat_record!(Hs::BenchLat, 42u64);
        assert_eq!(tick(), 0);
        record_since(Hs::BenchLat, 0);
        let s = snapshot();
        assert_eq!(s.counter(Ctr::BenchProbe), 0);
        assert_eq!(s.hist(Hs::BenchLat).count, 0);
    }

    #[test]
    fn counters_and_hists_merge_across_threads() {
        let _g = test_lock();
        enable();
        let mut handles = Vec::new();
        for t in 0..4u64 {
            handles.push(std::thread::spawn(move || {
                for i in 0..1000u64 {
                    stat_count!(Ctr::BenchProbe);
                    stat_record!(Hs::BenchLat, t * 1000 + i);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        disable();
        let s = snapshot();
        assert_eq!(s.counter(Ctr::BenchProbe), 4000);
        let v = s.hist(Hs::BenchLat);
        assert_eq!(v.count, 4000);
        // Display values are ns-scaled (BenchLat is a cycles histogram);
        // the raw merge must still see the largest recorded value.
        assert_eq!(v.raw.max, 3999);
        assert!(v.p50 > 0.0 && v.p50 <= v.p99);
        assert!(v.p99 <= v.max);
    }

    #[test]
    fn timed_interval_lands_in_a_cycles_histogram() {
        let _g = test_lock();
        enable();
        let t0 = tick();
        assert_ne!(t0, 0);
        std::thread::sleep(std::time::Duration::from_millis(2));
        record_since(Hs::BenchLat, t0);
        disable();
        let s = snapshot();
        let v = s.hist(Hs::BenchLat);
        assert_eq!(v.count, 1);
        // 2 ms sleep must read as >= 0.2 ms even with sloppy calibration.
        assert!(v.max >= 200_000.0, "max = {} ns", v.max);
    }

    #[test]
    fn enable_resets_the_previous_epoch() {
        let _g = test_lock();
        enable();
        stat_count!(Ctr::CvWakeAll);
        disable();
        assert_eq!(snapshot().counter(Ctr::CvWakeAll), 1);
        enable();
        disable();
        assert_eq!(snapshot().counter(Ctr::CvWakeAll), 0);
    }

    #[test]
    fn sources_are_sampled_and_replaceable() {
        let _g = test_lock();
        fn src_a() -> Vec<(String, u64)> {
            vec![("x".into(), 1)]
        }
        fn src_b() -> Vec<(String, u64)> {
            vec![("x".into(), 2)]
        }
        register_source("test_src", src_a);
        let s = snapshot();
        let (_, kv) = s
            .sources
            .iter()
            .find(|(n, _)| *n == "test_src")
            .expect("source registered");
        assert_eq!(kv[0], ("x".to_string(), 1));
        register_source("test_src", src_b);
        let s = snapshot();
        let (_, kv) = s.sources.iter().find(|(n, _)| *n == "test_src").unwrap();
        assert_eq!(kv[0].1, 2, "re-registration must replace");
    }
}
