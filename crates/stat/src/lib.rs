//! lockstat/mpstat-style aggregate statistics for the threads library:
//! the read side of its one probe path.
//!
//! `sunmt-trace` records: every probe counts its tag, and latency probes
//! fill log2 histograms, in the calling LWP's block. This crate answers
//! "how much and how long" from those blocks without replaying an event
//! log — the split Solaris shipped as `tnfprobes` vs `lockstat`/`mpstat`:
//!
//! - [`enable`] zeroes the lock-site table and sets the switch word's
//!   counting bit; [`disable`] clears it. While both bits are off, a probe
//!   is one relaxed load and a predicted branch.
//! - Latency probes (`sunmt_trace::{tick, record_since}`) timestamp with
//!   [`sunmt_trace::clock::now_cycles`] (one `rdtsc`) and store raw
//!   cycles; [`snapshot`] converts them to nanoseconds once.
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

pub mod lock;
pub mod report;

use std::sync::Mutex;

pub use lock::LockSnapshot;
pub use report::{prometheus, snapshot_json, stats_report};
use sunmt_trace::{Counters, Tag, Unit};
pub use sunmt_trace::{Hist, Hs};

// ---------------------------------------------------------------------
// External gauge sources.

/// A named set of externally maintained gauges, sampled at snapshot time.
pub type SourceFn = fn() -> Vec<(String, u64)>;

static SOURCES: Mutex<Vec<(&'static str, SourceFn)>> = Mutex::new(Vec::new());

/// Registers (or replaces) a named gauge source. Subsystems with their
/// own always-on counters — scheduler shards, the poller — register here
/// once at init so every report/exposition includes them without this
/// crate depending on those layers.
pub fn register_source(name: &'static str, f: SourceFn) {
    let mut v = SOURCES.lock().expect("stat sources");
    if let Some(slot) = v.iter_mut().find(|(n, _)| *n == name) {
        slot.1 = f;
    } else {
        v.push((name, f));
    }
}

// ---------------------------------------------------------------------
// Control and snapshot.

/// Starts a statistics epoch: zeroes the lock table, then sets the
/// counting bit. The per-LWP counters and histograms are shared with
/// tracing: they restart here unless `sunmt::trace::enable` has tracing
/// on already, in which case they keep the window tracing opened.
pub fn enable() {
    lock::reset();
    sunmt_trace::switch_on(sunmt_trace::COUNTING);
}

/// Turns counting off. Accumulated data stays readable until the next
/// epoch starts.
pub fn disable() {
    sunmt_trace::switch_off(sunmt_trace::COUNTING);
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

/// A merged, display-ready copy of everything the probes recorded.
#[derive(Clone, Debug)]
pub struct Snapshot {
    /// Per-tag probe counts for the epoch.
    pub counters: Counters,
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
    /// Probe count for `tag`.
    pub fn counter(&self, tag: Tag) -> u64 {
        self.counters.get(tag)
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
    let hists = sunmt_trace::hists()
        .into_iter()
        .zip(Hs::ALL)
        .map(|(h, hs)| {
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
    let sources = SOURCES
        .lock()
        .expect("stat sources")
        .iter()
        .map(|(n, f)| (*n, f()))
        .collect();
    Snapshot {
        counters: sunmt_trace::counters(),
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
    use sunmt_trace::{probe, record, record_since, tick};

    #[test]
    fn disabled_probes_cost_nothing_and_record_nothing() {
        let _g = test_lock();
        enable();
        disable();
        probe!(Tag::Stop);
        record(Hs::BenchLat, 42);
        assert_eq!(tick(), 0);
        record_since(Hs::BenchLat, 0);
        let s = snapshot();
        assert_eq!(s.counter(Tag::Stop), 0);
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
                    probe!(Tag::Stop);
                    record(Hs::BenchLat, t * 1000 + i);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        disable();
        let s = snapshot();
        assert_eq!(s.counter(Tag::Stop), 4000);
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
        probe!(Tag::CvBroadcast);
        disable();
        assert_eq!(snapshot().counter(Tag::CvBroadcast), 1);
        enable();
        disable();
        assert_eq!(snapshot().counter(Tag::CvBroadcast), 0);
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
