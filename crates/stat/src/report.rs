//! Report rendering: the human lockstat-style table, the Prometheus-style
//! text exposition and the JSON snapshot.

use std::fmt::Write as _;

use crate::{snapshot, Snapshot};
use sunmt_trace::{Tag, Unit};

/// How many lock sites the human report shows.
const TOP_N: usize = 10;

fn fmt_site(addr: usize) -> String {
    if addr == 0 {
        "<overflow>".to_string()
    } else {
        format!("{addr:#x}")
    }
}

/// Renders the lockstat-style report for the current epoch: the top
/// lock sites by total block time, every latency histogram's quantiles,
/// the nonzero probe counters and the registered subsystem gauges.
pub fn stats_report() -> String {
    render_report(&snapshot())
}

/// [`stats_report`] over an already-taken [`Snapshot`].
pub fn render_report(s: &Snapshot) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "sunmt-stat report");
    let _ = writeln!(
        out,
        "\nlock sites by total block time (top {}):",
        TOP_N.min(s.locks.len().max(1))
    );
    let _ = writeln!(
        out,
        "  {:<18} {:>10} {:>9} {:>6} {:>7} {:>9} {:>12} {:>12} {:>12}",
        "site",
        "acquires",
        "contended",
        "spin%",
        "parks",
        "avg-spin",
        "avg-hold-ns",
        "blk-tot-us",
        "blk-max-us"
    );
    if s.locks.is_empty() {
        let _ = writeln!(out, "  (no lock activity recorded)");
    }
    for l in s.locks.iter().take(TOP_N) {
        let avg_spin = if l.contended == 0 {
            0.0
        } else {
            l.spin_iters as f64 / l.contended as f64
        };
        let _ = writeln!(
            out,
            "  {:<18} {:>10} {:>9} {:>6.1} {:>7} {:>9.0} {:>12.0} {:>12.1} {:>12.1}",
            fmt_site(l.addr),
            l.acquires,
            l.contended,
            l.spin_ratio() * 100.0,
            l.parks,
            avg_spin,
            l.avg_hold_ns(),
            l.block_ns / 1_000.0,
            l.block_max_ns / 1_000.0,
        );
    }
    let _ = writeln!(out, "\nlatency histograms:");
    let _ = writeln!(
        out,
        "  {:<12} {:>10} {:>10} {:>10} {:>10} {:>12}  unit",
        "histogram", "count", "p50", "p90", "p99", "max"
    );
    for v in &s.hists {
        if v.count == 0 {
            continue;
        }
        let _ = writeln!(
            out,
            "  {:<12} {:>10} {:>10.0} {:>10.0} {:>10.0} {:>12.0}  {}",
            v.hs.name(),
            v.count,
            v.p50,
            v.p90,
            v.p99,
            v.max,
            if v.unit_label().is_empty() {
                "count"
            } else {
                v.unit_label()
            },
        );
    }
    let _ = writeln!(out, "\nprobe counters:");
    for (t, n) in s.counters.nonzero() {
        let _ = writeln!(out, "  {:<24} {n:>12}", t.name());
    }
    for (name, kv) in &s.sources {
        let _ = writeln!(out, "\n{name}:");
        for (k, v) in kv {
            let _ = writeln!(out, "  {k:<24} {v:>12}");
        }
    }
    out
}

/// Renders the current epoch as a Prometheus-style text exposition
/// (per-tag probe counters, summary-style histogram quantiles, per-site
/// lock gauges, subsystem gauges).
pub fn prometheus() -> String {
    render_prometheus(&snapshot())
}

/// [`prometheus`] over an already-taken [`Snapshot`].
pub fn render_prometheus(s: &Snapshot) -> String {
    let mut out = String::from("# TYPE sunmt_probe_total counter\n");
    for t in Tag::ALL {
        let _ = writeln!(
            out,
            "sunmt_probe_total{{tag=\"{}\"}} {}",
            t.name(),
            s.counter(t)
        );
    }
    for v in &s.hists {
        let suffix = match v.hs.unit() {
            Unit::Cycles => "_ns",
            Unit::Count => "",
        };
        let m = format!("sunmt_{}{suffix}", v.hs.name());
        let _ = writeln!(out, "# TYPE {m} summary");
        for (q, val) in [("0.5", v.p50), ("0.9", v.p90), ("0.99", v.p99)] {
            let _ = writeln!(out, "{m}{{quantile=\"{q}\"}} {val:.0}");
        }
        let _ = writeln!(out, "{m}_count {}", v.count);
        let _ = writeln!(out, "{m}_sum {:.0}", v.mean * v.count as f64);
    }
    let _ = writeln!(out, "# TYPE sunmt_lock_block_ns_total counter");
    for l in &s.locks {
        let _ = writeln!(
            out,
            "sunmt_lock_block_ns_total{{site=\"{}\"}} {:.0}",
            fmt_site(l.addr),
            l.block_ns
        );
        let _ = writeln!(
            out,
            "sunmt_lock_acquires_total{{site=\"{}\"}} {}",
            fmt_site(l.addr),
            l.acquires
        );
    }
    for (name, kv) in &s.sources {
        for (k, v) in kv {
            let _ = writeln!(out, "sunmt_{name}_{k} {v}");
        }
    }
    let _ = writeln!(out, "# TYPE sunmt_trace_dropped_total counter");
    let _ = writeln!(out, "sunmt_trace_dropped_total {}", s.trace_dropped);
    out
}

fn json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Renders the current epoch as one JSON object (per-tag probe counters,
/// histogram quantiles, lock sites, subsystem gauges) for machine
/// consumption.
pub fn snapshot_json() -> String {
    render_json(&snapshot())
}

/// [`snapshot_json`] over an already-taken [`Snapshot`].
pub fn render_json(s: &Snapshot) -> String {
    let mut out = String::from("{\"counters\":{");
    for (i, t) in Tag::ALL.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        json_str(&mut out, t.name());
        let _ = write!(out, ":{}", s.counter(t));
    }
    out.push_str("},\"hists\":[");
    for (i, v) in s.hists.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"name\":");
        json_str(&mut out, v.hs.name());
        out.push_str(",\"unit\":");
        json_str(&mut out, v.unit_label());
        let _ = write!(
            out,
            ",\"count\":{},\"mean\":{:.1},\"p50\":{:.1},\"p90\":{:.1},\"p99\":{:.1},\"max\":{:.1}}}",
            v.count, v.mean, v.p50, v.p90, v.p99, v.max
        );
    }
    out.push_str("],\"locks\":[");
    for (i, l) in s.locks.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"site\":");
        json_str(&mut out, &fmt_site(l.addr));
        let _ = write!(
            out,
            ",\"acquires\":{},\"contended\":{},\"spin_acquires\":{},\"parks\":{},\
             \"spin_iters\":{},\"block_ns\":{:.1},\"block_max_ns\":{:.1},\
             \"hold_ns\":{:.1},\"hold_count\":{}}}",
            l.acquires,
            l.contended,
            l.spin_acquires,
            l.parks,
            l.spin_iters,
            l.block_ns,
            l.block_max_ns,
            l.hold_ns,
            l.hold_count
        );
    }
    out.push_str("],\"sources\":{");
    for (i, (name, kv)) in s.sources.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        json_str(&mut out, name);
        out.push_str(":{");
        for (j, (k, v)) in kv.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            json_str(&mut out, k);
            let _ = write!(out, ":{v}");
        }
        out.push('}');
    }
    let _ = write!(out, "}},\"trace_dropped\":{}", s.trace_dropped);
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{lock, Hs};

    #[test]
    fn report_names_the_hot_site_and_shows_percentiles() {
        let _g = crate::test_lock();
        crate::enable();
        let addr = 0xabc0_4000usize;
        for _ in 0..100 {
            let t0 = lock::slow_begin(addr);
            lock::acquired_slow(addr, t0);
            lock::released(addr);
        }
        sunmt_trace::record(Hs::RunqWait, 1000);
        sunmt_trace::record(Hs::RunqWait, 4000);
        crate::disable();
        let r = stats_report();
        assert!(r.contains("0xabc04000"), "site missing:\n{r}");
        assert!(r.contains("runq_wait"), "runq hist missing:\n{r}");
        assert!(r.contains("mutex_hold"), "hold hist missing:\n{r}");
        assert!(r.contains("p50") && r.contains("p99"));
    }

    #[test]
    fn prometheus_exposition_has_types_and_quantiles() {
        let _g = crate::test_lock();
        crate::enable();
        for _ in 0..3 {
            sunmt_trace::probe!(Tag::CvBroadcast);
        }
        sunmt_trace::record(Hs::IoWait, 123);
        crate::disable();
        let p = prometheus();
        assert!(p.contains("# TYPE sunmt_probe_total counter"));
        assert!(p.contains("sunmt_probe_total{tag=\"cv-broadcast\"} 3"));
        assert!(p.contains("sunmt_io_wait_ns{quantile=\"0.99\"}"));
        assert!(p.contains("sunmt_io_wait_ns_count 1"));
    }

    #[test]
    fn json_snapshot_is_well_formed_enough_to_eyeball() {
        let _g = crate::test_lock();
        crate::enable();
        sunmt_trace::record(Hs::MutexSpin, 64);
        crate::disable();
        let j = snapshot_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert_eq!(
            j.matches('{').count(),
            j.matches('}').count(),
            "unbalanced braces: {j}"
        );
        assert!(j.contains("\"name\":\"mutex_spin\""));
        assert!(j.contains("\"counters\""));
        assert!(j.contains("\"locks\""));
    }
}
