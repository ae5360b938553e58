//! Turns a run's raw data into named metrics, prints them, and applies
//! the discrimination check of the traced run.
//!
//! A metric line is `metric <class> <name> <value> <unit> [note]`. Classes:
//! `e2e` (end-to-end, tracing off), `layer` (per-layer, defined on every
//! workload: these are `BENCHMARK.json`'s `per_layer`), `extra` (per-layer
//! numbers that exist only where the workload calls the function, printed
//! and written to `out/` but not part of the result line) and `count`.

use std::fmt::Write as _;
use std::path::PathBuf;

use crate::harness::{
    cycles_to_ns, median, peak_rss_mb, Counters, LatHist, RunData, WinAcc, WARM_WINDOWS, WINDOW_NS,
};
use crate::span::{self, Layer, Name, LAYERS};

pub struct Metric {
    pub class: String,
    pub name: String,
    pub value: f64,
    pub unit: String,
    pub note: String,
}

impl Metric {
    pub fn new(class: &str, name: &str, value: f64, unit: &str) -> Metric {
        Metric {
            class: class.into(),
            name: name.into(),
            value: if value.is_finite() { value } else { 0.0 },
            unit: unit.into(),
            note: String::new(),
        }
    }

    pub fn e2e(name: &str, value: f64, unit: &str) -> Metric {
        Metric::new("e2e", name, value, unit)
    }

    pub fn layer(name: &str, value: f64, unit: &str) -> Metric {
        Metric::new("layer", name, value, unit)
    }

    fn extra(name: &str, value: f64, unit: &str) -> Metric {
        Metric::new("extra", name, value, unit)
    }

    pub fn note(mut self, note: String) -> Metric {
        self.note = note;
        self
    }

    pub fn print(&self) {
        println!(
            "metric {} {} {} {} {}",
            self.class, self.name, self.value, self.unit, self.note
        );
    }

    pub fn parse(line: &str) -> Option<Metric> {
        let mut it = line.strip_prefix("metric ")?.splitn(5, ' ');
        let (class, name) = (it.next()?, it.next()?);
        let value = it.next()?.parse().ok()?;
        let unit = it.next()?;
        Some(Metric::new(class, name, value, unit).note(it.next().unwrap_or("").to_string()))
    }

    pub fn pretty(&self) -> String {
        format!(
            "{:<6} {:<30} {:>16.4} {:<6} {}",
            self.class, self.name, self.value, self.unit, self.note
        )
    }
}

/// The result line of the benchmark contract.
pub fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        let _ = write!(
            s,
            "{}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            if i == 0 { "" } else { ", " },
            m.name,
            m.value,
            m.unit
        );
    }
    s.push_str("}}");
    s
}

pub fn out_dir() -> PathBuf {
    std::env::var_os("BENCH_OUT_DIR").map_or_else(|| PathBuf::from("benchmark/out"), PathBuf::from)
}

/// Every metric of one run, all classes, for `compare` and for reading.
pub fn write_metrics_file(workload: &str, trace: bool, metrics: &[Metric]) {
    let mut s = String::from("{");
    for (i, m) in metrics.iter().enumerate() {
        let _ = write!(
            s,
            "{}\n\"{}\": {{\"class\": \"{}\", \"value\": {}, \"unit\": \"{}\", \"note\": \"{}\"}}",
            if i == 0 { "" } else { "," },
            m.name,
            m.class,
            m.value,
            m.unit,
            m.note
        );
    }
    s.push_str("\n}\n");
    let path = out_dir().join(format!("metrics-{workload}-trace{}.json", u8::from(trace)));
    let _ = std::fs::create_dir_all(out_dir());
    if let Err(e) = std::fs::write(&path, s) {
        eprintln!("benchmark: cannot write {}: {e}", path.display());
    }
}

fn us(cycles: f64) -> f64 {
    cycles_to_ns(cycles) / 1e3
}

/// Per-window series of the three timed end-to-end metrics.
struct Series {
    ops_per_s: Vec<f64>,
    p50_us: Vec<f64>,
    p99_us: Vec<f64>,
    samples: u64,
}

fn series<'a>(windows: impl Iterator<Item = &'a WinAcc>) -> Series {
    let mut s = Series {
        ops_per_s: Vec::new(),
        p50_us: Vec::new(),
        p99_us: Vec::new(),
        samples: 0,
    };
    for w in windows {
        s.ops_per_s.push(w.ops as f64 * 1e9 / WINDOW_NS as f64);
        s.p50_us.push(us(w.lat.quantile(0.5)));
        s.p99_us.push(us(w.lat.quantile(w.lat.tail_q())));
        s.samples += w.lat.count();
    }
    s
}

fn per(n: u64, ops: u64) -> f64 {
    n as f64 / ops.max(1) as f64
}

/// Prints every metric of the run; returns whether the run was correct.
pub fn report(
    workload: &str,
    op_unit: &str,
    span_shift: u32,
    trace: bool,
    data: &RunData,
    extra_failed: u64,
) -> bool {
    // Read before the span analysis allocates: the peak is the workload's.
    let rss = peak_rss_mb();
    let measured = &data.windows[WARM_WINDOWS..data.windows.len() - 1];
    let attempted: u64 = data.windows.iter().map(|w| w.ops).sum();
    let failed: u64 = data.windows.iter().map(|w| w.failed).sum::<u64>() + extra_failed;
    let mut ok = true;

    if trace {
        ok &= traced_report(workload, span_shift, data, measured);
    } else {
        let s = series(measured.iter());
        let samples = format!("samples={} windows={}", s.samples, s.ops_per_s.len());
        Metric::e2e("ops_per_s", median(&s.ops_per_s), "1/s")
            .note(format!("unit={op_unit}"))
            .print();
        Metric::e2e("lat_p50_us", median(&s.p50_us), "us")
            .note(samples.clone())
            .print();
        Metric::e2e("lat_p99_us", median(&s.p99_us), "us")
            .note(samples)
            .print();
        Metric::e2e("peak_rss_mb", rss, "MB").print();
    }
    Metric::new("count", "attempted", attempted as f64, "ops").print();
    Metric::new("count", "failed", failed as f64, "ops").print();
    ok && failed == 0 && attempted > 0
}

/// The dominant layer of each workload and the layers it must bypass
/// (< 15 % of attributed operation time).
fn expectation(workload: &str) -> (Layer, &'static [Layer]) {
    use Layer::{Chan, Core, Io, Sync};
    match workload {
        "spawn_join" => (Core, &[Sync, Chan, Io]),
        "db_read" => (Sync, &[Core, Chan, Io]),
        "db_write" => (Sync, &[Chan, Io]),
        "chan_pipeline" => (Chan, &[Sync, Io]),
        _ => (Io, &[Sync, Chan]),
    }
}

fn traced_report(workload: &str, span_shift: u32, data: &RunData, measured: &[WinAcc]) -> bool {
    let pick = |on: bool| {
        measured
            .iter()
            .zip(&data.traced_windows)
            .filter(move |(_, t)| **t == on)
            .map(|(w, _)| w)
    };
    let (plain, traced) = (series(pick(false)), series(pick(true)));
    let (plain_ops, traced_ops) = (median(&plain.ops_per_s), median(&traced.ops_per_s));
    println!(
        "traced run: {} untraced / {} traced windows interleaved; ops_per_s {plain_ops:.1} untraced, \
         {traced_ops:.1} traced; spans sampled 1 operation in {}",
        plain.ops_per_s.len(),
        traced.ops_per_s.len(),
        1u64 << span_shift
    );

    let ops: u64 = measured.iter().map(|w| w.ops).sum();
    let (b, a) = (&data.before, &data.after);
    let t = &data.traced;
    let hits = a.sched.magazine_hits - b.sched.magazine_hits;
    let misses = a.sched.magazine_misses - b.sched.magazine_misses;
    let ns = |h: &sunmt_stat::Hist, q: f64| cycles_to_ns(h.quantile(q));
    let (analysis, spans) = span::analyse();

    // Always-on counters, differenced over the measured windows.
    let delta = |f: fn(&Counters) -> u64| f(a) - f(b);
    let per_op = |f: fn(&Counters) -> u64| per(delta(f), ops);
    let l = Metric::layer;
    let layer_metrics = [
        l("lwp.peak_count", data.peak_lwps as f64, "count"),
        l(
            "core.dispatches_per_op",
            per_op(|c| c.sched.dispatches),
            "1/op",
        ),
        l(
            "core.steals_per_kop",
            1e3 * per_op(|c| c.sched.steals),
            "1/kop",
        ),
        l("core.injects_per_op", per_op(|c| c.sched.injects), "1/op"),
        l(
            "core.idle_wakes_per_op",
            per_op(|c| c.sched.idle_wakes),
            "1/op",
        ),
        l("core.pool_grows", a.sched.pool_grows as f64, "count"),
        l("core.magazine_hit_ratio", per(hits, hits + misses), "ratio"),
        l(
            "core.timeout_wakeups_per_op",
            per_op(|c| c.sched.timeout_wakeups),
            "1/op",
        ),
        l("core.runq_wait_us_p50", ns(&t.runq_wait, 0.5) / 1e3, "us"),
        l("core.runq_wait_us_p99", ns(&t.runq_wait, 0.99) / 1e3, "us"),
        l(
            "sync.contended_share",
            per(t.contended, t.acquires),
            "share",
        ),
        l("chan.parks_per_msg", per(t.chan_parks, t.ops), "1/op"),
        l(
            "io.registrations_per_op",
            per_op(|c| c.io.registrations),
            "1/op",
        ),
        l(
            "io.ctl_syscalls_per_op",
            per_op(|c| c.io.ctl_syscalls),
            "1/op",
        ),
        l(
            "io.epoll_waits_per_op",
            per_op(|c| c.io.epoll_waits),
            "1/op",
        ),
        l("io.shard_steals", delta(|c| c.io.steals) as f64, "count"),
        l("io.timeouts", delta(|c| c.io.timeouts) as f64, "count"),
        l("sys.futex_wakes_per_op", per(t.futex_wakes, t.ops), "1/op"),
        l("obs.traced_slowdown", 1.0 - traced_ops / plain_ops, "share"),
        l("budget.residual_share", analysis.residual_share, "share"),
    ];
    layer_metrics.iter().for_each(Metric::print);
    for (layer, share) in LAYERS.iter().zip(analysis.share) {
        l(&format!("share.{}", layer.name()), share, "share").print();
    }

    // Numbers that exist only where the workload calls the function.
    let quantiles = |name: &str, h: &LatHist, scale: f64, unit: &str| {
        for (q, tag) in [(0.5, "p50"), (h.tail_q(), "p99")] {
            Metric::extra(
                &format!("{name}_{unit}_{tag}"),
                cycles_to_ns(h.quantile(q)) / scale,
                unit,
            )
            .note(format!("samples={}", h.count()))
            .print();
        }
    };
    for (name, hist) in &analysis.by_name {
        match name {
            Name::IoWake | Name::ChanHop => quantiles(name.text(), hist, 1e3, "us"),
            _ => quantiles(name.text(), hist, 1.0, "ns"),
        }
    }
    if t.mutex_block.count() > 0 {
        for (q, tag) in [(0.5, "p50"), (0.99, "p99")] {
            Metric::extra(
                &format!("sync.block_us_{tag}"),
                ns(&t.mutex_block, q) / 1e3,
                "us",
            )
            .note(format!("samples={}", t.mutex_block.count()))
            .print();
        }
    }

    let path = crate::report::out_dir().join(format!("trace-{workload}.json"));
    span::dump(&path, workload, &spans, 50_000);
    println!(
        "spans: {} recorded over {} sampled operations; first {} written to {}",
        analysis.spans,
        analysis.ops,
        spans.len().min(50_000),
        path.display()
    );

    let (dominant, bypassed) = expectation(workload);
    let share_of =
        |layer: Layer| analysis.share[LAYERS.iter().position(|x| *x == layer).expect("listed")];
    let largest = LAYERS.iter().all(|x| share_of(*x) <= share_of(dominant));
    let bypass_ok = bypassed.iter().all(|x| share_of(*x) < 0.15);
    let pass = analysis.ops > 0 && share_of(dominant) > 0.0 && largest && bypass_ok;
    println!(
        "discrimination: {} (dominant layer {} holds {:.3} of operation time; bypassed {:?} each < 0.15)",
        if pass { "PASS" } else { "FAIL" },
        dominant.name(),
        share_of(dominant),
        bypassed.iter().map(|x| x.name()).collect::<Vec<_>>()
    );
    pass
}
