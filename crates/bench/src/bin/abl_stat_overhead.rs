//! ABL-STAT — what do the statistics and trace layers cost on the hot
//! path?
//!
//! The whole point of the one probe path (`sunmt-trace` records,
//! `sunmt-stat` reads) is that instrumentation can stay compiled into
//! every lock and scheduler path: a *disabled* probe is one relaxed load
//! of the switch word and a predicted branch (~0 ns against the
//! surrounding code), and an *enabled* counter or histogram probe is a
//! load/add/store into the calling LWP's own block (single-digit
//! nanoseconds). This bench measures exactly that, nets out the loop
//! overhead with a baseline, and emits the numbers CI gates
//! (`BENCH_stat.json`):
//!
//! * `disabled_probe_ns` — a `probe!` plus a histogram `record` with
//!   both switch bits off, net of baseline. Gated at ≈ 0 (ceiling
//!   2.0 ns).
//! * `enabled_count_ns` — `probe!` with only the counting bit on: one
//!   per-LWP counter. Gated ≤ 10 ns.
//! * `enabled_hist_ns` — `record` (log2 bucketing) with counting on.
//!   Gated ≤ 10 ns.
//! * `enabled_timer_pair_ns` — a `tick()`/`record_since()` latency pair:
//!   two `rdtsc` reads plus the histogram write. Reported, not gated
//!   (TSC read cost is the hardware's, not ours).
//! * `trace_disabled_probe_ns` — one `probe!` with both bits off, net of
//!   baseline. Gated like `disabled_probe_ns` (ceiling 2.0 ns).
//! * `trace_enabled_probe_ns` — the same `probe!` with tracing on: the
//!   per-LWP counter, an `rdtsc` stamp and a ring-slot write. Gated
//!   ≤ 100 ns.
//!
//! A second section demonstrates the lockstat output the layer exists
//! for: four host threads hammer one `sunmt_sync::Mutex`, and the
//! printed [`sunmt_stat::stats_report`] must name that mutex's site with
//! contention counts and hold-time percentiles (shape-checked).
//!
//! `--smoke` shrinks budgets for CI; `--json PATH` writes the table
//! (committed as `BENCH_stat.json`).

use std::hint::black_box;
use std::sync::Arc;

use sunmt_bench::{median_ns, PaperTable};
use sunmt_sync::{Mutex, SyncType};
use sunmt_trace::{probe, record, record_since, tick, Hs, Tag};

/// Four host threads fight over one mutex long enough to populate the
/// site table with contention, spins, parks and hold times.
fn contended_workload(rounds: usize) -> usize {
    let m = Arc::new(Mutex::new(SyncType::DEFAULT));
    let site = m.as_ref() as *const Mutex as usize;
    let mut handles = Vec::new();
    for _ in 0..4 {
        let m = Arc::clone(&m);
        handles.push(std::thread::spawn(move || {
            let mut acc = 0u64;
            for i in 0..rounds {
                m.enter();
                // A short but real critical section, so hold time is
                // nonzero and the other threads actually contend.
                acc = acc.wrapping_add(black_box(i as u64).wrapping_mul(0x9E37_79B9));
                m.exit();
            }
            black_box(acc);
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    site
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (n, samples) = if smoke { (400_000, 5) } else { (4_000_000, 9) };
    let rounds = if smoke { 20_000 } else { 100_000 };

    let mut t = PaperTable::new(
        "Ablation: statistics overhead — disabled probes must be free, \
         enabled probes single-digit ns (per-op, net of baseline)",
    );

    // Warm the calibration (first ns_per_cycle() call spins ~2 ms) and
    // this LWP's probe block outside the timed regions.
    sunmt_trace::clock::ns_per_cycle();
    sunmt_stat::enable();
    probe!(Tag::RunqPush);
    sunmt_stat::disable();

    // --- Probe cost ladder ------------------------------------------------
    let baseline = median_ns(n, samples, |i| {
        black_box(i);
    });

    let disabled = median_ns(n, samples, |i| {
        black_box(i);
        probe!(Tag::RunqPush, i);
        record(Hs::BenchLat, i & 0xFFF);
    });

    sunmt_stat::enable(); // A fresh epoch: the warm-up count restarts.
    let en_count = median_ns(n, samples, |i| {
        black_box(i);
        probe!(Tag::RunqPush, i);
    });
    let en_hist = median_ns(n, samples, |i| {
        black_box(i);
        record(Hs::BenchLat, i & 0xFFF);
    });
    let en_pair = median_ns(n, samples, |i| {
        black_box(i);
        let t0 = tick();
        record_since(Hs::BenchLat, t0);
    });
    let recorded = sunmt_stat::snapshot().counter(Tag::RunqPush);
    sunmt_stat::disable();

    let tr_disabled = median_ns(n, samples, |i| {
        black_box(i);
        probe!(Tag::RunqPush, i);
    });
    // An enabled trace probe also stamps and writes a ring slot, several
    // times a bare count, so a tenth of the iterations resolves it.
    let n_traced = n / 10;
    sunmt_trace::enable(); // A fresh epoch for the per-tag counters.
    let tr_enabled = median_ns(n_traced, samples, |i| {
        black_box(i);
        probe!(Tag::RunqPush, i);
    });
    sunmt_trace::disable();
    let traced = sunmt_trace::counters().get(Tag::RunqPush);

    let net = |v: f64| (v - baseline).max(0.0);
    t.row("baseline loop (us/op)", baseline / 1e3);
    t.row("disabled count+hist probes (us/op)", disabled / 1e3);
    t.row("enabled count probe (us/op)", en_count / 1e3);
    t.row("enabled histogram probe (us/op)", en_hist / 1e3);
    t.row("enabled tick/record_since pair (us/op)", en_pair / 1e3);
    t.row("disabled trace probe (us/op)", tr_disabled / 1e3);
    t.row("enabled trace probe (us/op)", tr_enabled / 1e3);
    t.note(format!(
        "ops={n} traced_ops={n_traced} samples={samples} baseline_ns={baseline:.2}"
    ));
    t.note(format!("disabled_probe_ns={:.2}", net(disabled)));
    t.note(format!("enabled_count_ns={:.2}", net(en_count)));
    t.note(format!("enabled_hist_ns={:.2}", net(en_hist)));
    t.note(format!(
        "enabled_timer_pair_ns={:.2} (two rdtsc reads; informative, not gated)",
        net(en_pair)
    ));
    t.note(format!("trace_disabled_probe_ns={:.2}", net(tr_disabled)));
    t.note(format!("trace_enabled_probe_ns={:.2}", net(tr_enabled)));

    // --- The lockstat demo -----------------------------------------------
    sunmt_stat::enable();
    let site = contended_workload(rounds);
    sunmt_stat::disable();
    let snap = sunmt_stat::snapshot();
    println!("\n{}", sunmt_stat::stats_report());
    let s = snap
        .locks
        .iter()
        .find(|s| s.addr == site)
        .expect("the hammered mutex must appear in the site table");
    t.note(format!(
        "lockstat: site={site:#x} acquires={} contended={} spin_ratio={:.2} \
         parks={} avg_hold_ns={:.1}",
        s.acquires,
        s.contended,
        s.spin_ratio(),
        s.parks,
        s.avg_hold_ns()
    ));

    t.print();
    if let Err(e) = t.write_json_if_requested("abl_stat", std::env::args()) {
        eprintln!("abl_stat_overhead: {e}");
        std::process::exit(2);
    }

    // Shape checks: every enabled count and trace probe must
    // actually have landed; the contended site must carry acquires from
    // all four threads and a positive hold time; the hold histogram must
    // have observations.
    assert_eq!(
        recorded,
        n * samples as u64,
        "enabled counter lost increments"
    );
    assert_eq!(
        traced,
        n_traced * samples as u64,
        "enabled trace probe lost events"
    );
    assert_eq!(
        s.acquires,
        4 * rounds as u64,
        "site acquire count does not match the workload"
    );
    assert!(
        s.avg_hold_ns() > 0.0,
        "hold-time clock recorded nothing for the hammered mutex"
    );
    assert!(
        snap.hist(Hs::MutexHold).count > 0,
        "global hold histogram is empty"
    );
    println!(
        "\nshape check: OK (disabled {:.2} ns, enabled count {:.2} ns, hist {:.2} ns, \
         trace disabled {:.2} ns, trace enabled {:.2} ns)",
        net(disabled),
        net(en_count),
        net(en_hist),
        net(tr_disabled),
        net(tr_enabled)
    );
}
