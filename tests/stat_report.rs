//! End-to-end checks for the `sunmt-stat` layer: a contended
//! `sunmt_sync::Mutex` must show up in the lockstat report *by address*
//! with contention counts and hold-time percentiles, a storm of unbound
//! threads must populate the run-queue wait histogram and the scheduler
//! gauge source, and `enable()` must open a fresh epoch.
//!
//! The statistics registry is process-global, so every test here takes
//! the serial lock and brackets its own enable/disable window.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use sunos_mt::stat::{self, Hs};
use sunos_mt::sync::{Mutex, SyncType};
use sunos_mt::threads::{self, CreateFlags, ThreadBuilder};

/// Stat blocks and the site table are process-global; tests take turns.
static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[test]
fn contended_mutex_is_named_in_the_report() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    const WORKERS: usize = 4;
    const ROUNDS: usize = 2_000;

    let m = Arc::new(Mutex::new(SyncType::DEFAULT));
    let site = m.as_ref() as *const Mutex as usize;

    stat::enable();
    // Hold the mutex while the workers start so the first acquire of
    // every worker is contended by construction, not by timing luck.
    m.enter();
    let started = Arc::new(AtomicUsize::new(0));
    let hs: Vec<_> = (0..WORKERS)
        .map(|_| {
            let m = Arc::clone(&m);
            let started = Arc::clone(&started);
            std::thread::spawn(move || {
                started.fetch_add(1, Ordering::SeqCst);
                for _ in 0..ROUNDS {
                    m.enter();
                    m.exit();
                }
            })
        })
        .collect();
    while started.load(Ordering::SeqCst) < WORKERS {
        std::thread::yield_now();
    }
    std::thread::sleep(Duration::from_millis(20));
    m.exit();
    for h in hs {
        h.join().expect("worker");
    }
    stat::disable();

    let snap = stat::snapshot();
    let l = snap
        .locks
        .iter()
        .find(|l| l.addr == site)
        .expect("the hammered mutex must appear in the site table");
    // The holder's own enter/exit pair plus every worker acquire.
    assert_eq!(l.acquires, 1 + (WORKERS * ROUNDS) as u64);
    assert!(l.contended > 0, "workers never blocked on the held mutex");
    assert!(l.hold_count > 0 && l.avg_hold_ns() > 0.0);

    let report = stat::stats_report();
    let site_hex = format!("{site:#x}");
    assert!(report.contains(&site_hex), "site missing:\n{report}");
    assert!(report.contains("avg-hold-ns"), "no hold column:\n{report}");
    assert!(
        report.contains("mutex_hold"),
        "no hold histogram:\n{report}"
    );

    // The same site must be visible to scrapers.
    let prom = stat::prometheus();
    assert!(prom.contains(&format!("sunmt_lock_acquires_total{{site=\"{site_hex}\"}}")));
    let json = stat::snapshot_json();
    assert!(json.contains(&site_hex));
}

#[test]
fn thread_storm_populates_runq_wait_and_sched_source() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    threads::init();
    stat::enable();

    let mut ids = Vec::new();
    for _ in 0..64 {
        ids.push(
            ThreadBuilder::new()
                .flags(CreateFlags::WAIT)
                .spawn(|| {})
                .expect("spawn"),
        );
    }
    for id in ids {
        threads::wait(Some(id)).expect("wait");
    }
    stat::disable();

    let snap = stat::snapshot();
    let rq = snap.hist(Hs::RunqWait);
    assert!(rq.count > 0, "no runq-wait samples from 64 dispatches");
    assert!(rq.max >= rq.p50 && rq.max > 0.0);

    let (_, sched) = snap
        .sources
        .iter()
        .find(|(name, _)| *name == "sched")
        .expect("sunmt::init must register the sched gauge source");
    let get = |k: &str| {
        sched
            .iter()
            .find(|(n, _)| n == k)
            .unwrap_or_else(|| panic!("missing sched gauge {k}"))
            .1
    };
    assert!(get("dispatches") > 0);
    assert!(get("magazine_hits") + get("magazine_misses") >= 64);

    let report = stat::stats_report();
    assert!(report.contains("runq_wait"), "no runq histogram:\n{report}");
    assert!(report.contains("\nsched:"), "no sched source:\n{report}");
}

#[test]
fn trace_drops_are_reported_to_scrapers() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    use sunos_mt::trace::{self, Tag};

    // Overrun this thread's trace ring (RING_CAP = 4096 events) so the
    // overwrite counter must move; it is cumulative across epochs.
    let before = trace::dropped();
    trace::enable();
    for i in 0..(3 * 4096u64) {
        trace::emit(Tag::ChanSend, i, 0);
    }
    trace::disable();
    let snap = stat::snapshot();
    assert!(
        snap.trace_dropped >= before + 4096,
        "ring overrun not counted: before={before} after={}",
        snap.trace_dropped
    );

    let prom = stat::prometheus();
    assert!(
        prom.contains("# TYPE sunmt_trace_dropped_total counter")
            && prom.contains("sunmt_trace_dropped_total "),
        "dropped counter missing from prometheus:\n{prom}"
    );
    let json = stat::snapshot_json();
    assert!(
        json.contains("\"trace_dropped\":"),
        "dropped counter missing from json:\n{json}"
    );
}

#[test]
fn enable_opens_a_fresh_epoch_and_disabled_probes_record_nothing() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());

    use sunos_mt::trace::{self, Tag};

    // A probe is a `counting()` branch in front of the raw primitive;
    // spell that out here rather than importing the macro. The library
    // emits this tag only when a thread is stopped, which no test here
    // does, so the library's own LWPs never count it.
    let probe = |c: u64, v: u64| {
        if trace::counting() {
            for _ in 0..c {
                trace::emit(Tag::Stop, 0, 0);
            }
            trace::record(Hs::BenchLat, v);
        }
    };

    stat::enable();
    probe(5, 1024);
    stat::disable();

    // Disabled probes are dead: nothing moves between epochs, and a
    // timer pair started while disabled stays disarmed (tick() == 0).
    probe(99, 1 << 20);
    assert_eq!(trace::tick(), 0);
    trace::record_since(Hs::BenchLat, 0);
    let snap = stat::snapshot();
    assert_eq!(snap.counter(Tag::Stop), 5);
    assert_eq!(snap.hist(Hs::BenchLat).count, 1);

    // Re-enabling zeroes the previous epoch everywhere.
    stat::enable();
    let fresh = stat::snapshot();
    stat::disable();
    assert_eq!(fresh.counter(Tag::Stop), 0);
    assert_eq!(fresh.hist(Hs::BenchLat).count, 0);
}
