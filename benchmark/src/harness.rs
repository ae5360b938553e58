//! What every workload shares: the window clock, per-thread latency
//! recording, the start gate, seeded inputs and the counter snapshots
//! that are read from outside the library.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

use sunmt::{CreateFlags, ThreadBuilder, ThreadId};
use sunmt_trace::clock;

/// Length of one measurement window.
pub const WINDOW_NS: u64 = 1_000_000_000;
/// Windows run and discarded before the measured ones, in every process.
pub const WARM_WINDOWS: usize = 1;

// ---------------------------------------------------------------------
// Seeded inputs.

/// SplitMix64, the same generator as `sunmt_bench::SmallRng` (that crate
/// depends on the simulator and the checker, which the benchmark must not
/// build or link).
pub struct SmallRng(u64);

impl SmallRng {
    pub fn new(seed: u64) -> SmallRng {
        SmallRng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Order-sensitive checksum of the generated inputs, printed so that two
/// runs with one seed can be shown to have issued the same operations.
#[derive(Clone, Copy)]
pub struct Checksum(u64);

impl Checksum {
    pub fn new() -> Checksum {
        Checksum(0xCBF2_9CE4_8422_2325)
    }

    pub fn add(&mut self, v: u64) {
        self.0 = (self.0 ^ v)
            .wrapping_mul(0x0000_0100_0000_01B3)
            .rotate_left(23);
    }

    pub fn get(self) -> u64 {
        self.0
    }
}

// ---------------------------------------------------------------------
// The window clock.

/// Cycle stamp of the start of window 0 (0 until the run starts).
static T0: AtomicU64 = AtomicU64::new(0);
/// Cycle stamp after which generator threads stop issuing operations.
static END: AtomicU64 = AtomicU64::new(u64::MAX);
/// Cycles per window.
static WIN: AtomicU64 = AtomicU64::new(u64::MAX);
/// Whether the benchmark's span recorder is on (traced windows only).
pub static SPANS_ON: AtomicBool = AtomicBool::new(false);

#[inline(always)]
pub fn now() -> u64 {
    clock::now_cycles()
}

pub fn cycles_to_ns(cycles: f64) -> f64 {
    cycles * clock::ns_per_cycle()
}

pub fn ns_to_cycles(ns: u64) -> u64 {
    (ns as f64 / clock::ns_per_cycle()) as u64
}

/// Blocks a pre-spawned generator thread until the run starts. The wait
/// is a yield loop, so it works for unbound threads and kernel threads.
pub fn wait_go() {
    while T0.load(Ordering::Acquire) == 0 {
        if sunmt::current_is_unbound() {
            sunmt::yield_now();
        } else {
            std::thread::yield_now();
        }
    }
}

/// Whether generator threads should stop (`now` past the last window).
#[inline]
pub fn past_end(now: u64) -> bool {
    now >= END.load(Ordering::Relaxed)
}

// ---------------------------------------------------------------------
// Latency histogram: 32 linear sub-buckets per power of two (3 % wide),
// interpolated on read, so a quantile moves smoothly with the data.

const SUB_BITS: u32 = 5;
const MAX_SHIFT: u32 = 36;
const NBUCKETS: usize = ((MAX_SHIFT as usize + 1) << SUB_BITS) + (1 << SUB_BITS);

#[derive(Clone)]
pub struct LatHist {
    counts: Vec<u32>,
    n: u64,
}

impl Default for LatHist {
    fn default() -> LatHist {
        LatHist {
            counts: vec![0; NBUCKETS],
            n: 0,
        }
    }
}

impl LatHist {
    #[inline]
    fn index(v: u64) -> usize {
        let msb = 63 - (v | 1).leading_zeros();
        let shift = msb.saturating_sub(SUB_BITS).min(MAX_SHIFT);
        let top = (v >> shift).min((2 << SUB_BITS) - 1);
        ((shift as usize) << SUB_BITS) + top as usize
    }

    /// Lower bound and width of bucket `i`.
    fn bounds(i: usize) -> (f64, f64) {
        let sub = 1usize << SUB_BITS;
        if i < 2 * sub {
            return (i as f64, 1.0);
        }
        let shift = (i >> SUB_BITS) - 1;
        let top = (i & (sub - 1)) + sub;
        ((top << shift) as f64, (1u64 << shift) as f64)
    }

    #[inline]
    pub fn record(&mut self, v: u64) {
        self.counts[Self::index(v)] += 1;
        self.n += 1;
    }

    pub fn merge(&mut self, other: &LatHist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += *b;
        }
        self.n += other.n;
    }

    pub fn clear(&mut self) {
        self.counts.iter_mut().for_each(|c| *c = 0);
        self.n = 0;
    }

    pub fn count(&self) -> u64 {
        self.n
    }

    /// The `q` quantile in recorded units (cycles), 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let target = q * self.n as f64;
        let mut seen = 0.0;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let c = f64::from(c);
            if seen + c >= target {
                let (lo, width) = Self::bounds(i);
                return lo + width * ((target - seen) / c).clamp(0.0, 1.0);
            }
            seen += c;
        }
        let (lo, width) = Self::bounds(NBUCKETS - 1);
        lo + width
    }

    /// The tail quantile the sample count supports: p99, or with fewer
    /// than 1000 samples the highest one with ten samples beyond it.
    pub fn tail_q(&self) -> f64 {
        if self.n >= 1000 {
            0.99
        } else {
            (1.0 - 10.0 / self.n.max(1) as f64).max(0.5)
        }
    }
}

// ---------------------------------------------------------------------
// Per-window accumulation.

#[derive(Clone, Default)]
pub struct WinAcc {
    pub lat: LatHist,
    pub ops: u64,
    pub failed: u64,
}

static WINDOWS: Mutex<Vec<WinAcc>> = Mutex::new(Vec::new());

/// One generator thread's recorder. Operations land in the window their
/// end stamp falls in; the local histogram is folded into the shared one
/// once per window, so recording an operation takes no lock.
pub struct Rec {
    cur: usize,
    next: u64,
    acc: WinAcc,
}

impl Rec {
    /// Call after [`wait_go`].
    pub fn new() -> Rec {
        Rec {
            cur: 0,
            next: T0.load(Ordering::Acquire) + WIN.load(Ordering::Relaxed),
            acc: WinAcc::default(),
        }
    }

    /// Records one latency sample covering `ops` operations, `failed` of
    /// which missed their oracle. Returns whether to issue another.
    #[inline]
    pub fn op(&mut self, start: u64, end: u64, ops: u64, failed: u64) -> bool {
        if end >= self.next {
            self.roll(end);
        }
        self.acc.lat.record(end.saturating_sub(start));
        self.acc.ops += ops;
        self.acc.failed += failed;
        !past_end(end)
    }

    #[cold]
    fn roll(&mut self, end: u64) {
        self.flush();
        let (t0, win) = (T0.load(Ordering::Relaxed), WIN.load(Ordering::Relaxed));
        self.cur = ((end - t0) / win) as usize;
        self.next = t0 + (self.cur as u64 + 1) * win;
    }

    fn flush(&mut self) {
        let mut w = WINDOWS.lock().expect("window table poisoned");
        // Operations that end after the last window are counted for
        // correctness but belong to no measured window.
        let last = w.len() - 1;
        let slot = &mut w[self.cur.min(last)];
        slot.lat.merge(&self.acc.lat);
        slot.ops += self.acc.ops;
        slot.failed += self.acc.failed;
        self.acc.lat.clear();
        self.acc.ops = 0;
        self.acc.failed = 0;
    }
}

impl Drop for Rec {
    fn drop(&mut self) {
        self.flush();
    }
}

// ---------------------------------------------------------------------
// Counters read from outside the library.

/// The always-on counters (`sunmt::stats()`, `sunmt_io::stats()`).
#[derive(Clone, Copy)]
pub struct Counters {
    pub sched: sunmt::SchedStats,
    pub io: sunmt_io::IoStats,
}

impl Counters {
    pub fn read() -> Counters {
        Counters {
            sched: sunmt::stats(),
            io: sunmt_io::stats(),
        }
    }
}

/// What the probes that need `sunmt::trace` / `sunmt_stat` enabled saw,
/// summed over the traced windows.
#[derive(Default)]
pub struct Traced {
    pub ops: u64,
    pub futex_wakes: u64,
    pub chan_parks: u64,
    pub runq_wait: sunmt_stat::Hist,
    pub mutex_block: sunmt_stat::Hist,
    pub acquires: u64,
    pub contended: u64,
}

/// Everything the controller collected over one run.
pub struct RunData {
    /// All windows, warm-up first, plus one overflow slot at the end.
    pub windows: Vec<WinAcc>,
    /// Which measured windows ran with tracing on.
    pub traced_windows: Vec<bool>,
    pub before: Counters,
    pub after: Counters,
    pub traced: Traced,
    pub peak_lwps: usize,
}

/// Runs the clock: releases the gate, sleeps through the windows, and in
/// a traced run turns `sunmt::trace`, `sunmt_stat` and the span recorder
/// on for every second measured window, so that the traced and untraced
/// throughputs compared by `obs.traced_slowdown` interleave in time.
pub fn drive(seconds: usize, trace: bool) -> RunData {
    let total = WARM_WINDOWS + seconds;
    {
        let mut w = WINDOWS.lock().expect("window table poisoned");
        w.clear();
        w.resize(total + 1, WinAcc::default());
    }
    let win = ns_to_cycles(WINDOW_NS);
    WIN.store(win, Ordering::Relaxed);
    let t0 = now();
    END.store(t0 + total as u64 * win, Ordering::Relaxed);
    T0.store(t0, Ordering::Release);

    let lwps = || sunmt_lwp::registry::global().counts().total;
    let mut data = RunData {
        windows: Vec::new(),
        traced_windows: Vec::new(),
        before: Counters::read(),
        after: Counters::read(),
        traced: Traced::default(),
        peak_lwps: lwps(),
    };
    for w in 0..total {
        // Odd measured windows are traced (the only one, if there is one).
        let on = trace && w >= WARM_WINDOWS && (seconds == 1 || (w - WARM_WINDOWS) % 2 == 1);
        if w == WARM_WINDOWS {
            data.before = Counters::read();
        }
        if on {
            sunmt::trace::enable();
            sunmt_stat::enable();
            SPANS_ON.store(true, Ordering::Relaxed);
        }
        sleep_until(t0 + (w as u64 + 1) * win);
        if on {
            SPANS_ON.store(false, Ordering::Relaxed);
            sunmt::trace::disable();
            sunmt_stat::disable();
            let c = sunmt::trace::counters();
            data.traced.futex_wakes += c.get(sunmt::trace::Tag::FutexWake);
            data.traced.chan_parks += c.get(sunmt::trace::Tag::ChanPark);
            let s = sunmt_stat::snapshot();
            data.traced
                .runq_wait
                .merge(&s.hist(sunmt_stat::Hs::RunqWait).raw);
            data.traced
                .mutex_block
                .merge(&s.hist(sunmt_stat::Hs::MutexBlock).raw);
            // Only mutex sites count their acquires; a semaphore or
            // rwlock site has contended entries and nothing to divide by.
            for l in s.locks.iter().filter(|l| l.acquires > 0) {
                data.traced.acquires += l.acquires;
                data.traced.contended += l.contended;
            }
        }
        if w >= WARM_WINDOWS {
            data.traced_windows.push(on);
        }
        data.peak_lwps = data.peak_lwps.max(lwps());
    }
    data.after = Counters::read();
    data
}

/// Call once every generator thread has been joined.
pub fn collect(mut data: RunData) -> RunData {
    data.windows = WINDOWS.lock().expect("window table poisoned").clone();
    for (i, on) in data.traced_windows.iter().enumerate() {
        if *on {
            data.traced.ops += data.windows[WARM_WINDOWS + i].ops;
        }
    }
    data
}

fn sleep_until(cycle: u64) {
    loop {
        let n = now();
        if n >= cycle {
            return;
        }
        let ns = cycles_to_ns((cycle - n) as f64) as u64;
        std::thread::sleep(std::time::Duration::from_nanos(ns.min(50_000_000)));
    }
}

// ---------------------------------------------------------------------
// Small helpers.

/// Spawns an unbound, joinable thread: the library's work item.
pub fn unbound(f: impl FnOnce() + Send + 'static) -> ThreadId {
    ThreadBuilder::new()
        .flags(CreateFlags::WAIT)
        .spawn(f)
        .expect("spawn unbound thread")
}

pub fn join_all(ids: Vec<ThreadId>) {
    for id in ids {
        sunmt::wait(Some(id)).expect("join generator thread");
    }
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn median(v: &[f64]) -> f64 {
    quantile_of(v, 0.5)
}

/// Linear-interpolated quantile of a small sample.
pub fn quantile_of(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Interquartile range as a share of the median.
pub fn spread(v: &[f64]) -> f64 {
    let m = median(v);
    if m == 0.0 {
        return 0.0;
    }
    (quantile_of(v, 0.75) - quantile_of(v, 0.25)) / m
}
