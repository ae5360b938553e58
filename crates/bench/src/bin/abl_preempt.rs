//! ABL-PREEMPT — timer-driven preemption in the real library.
//!
//! The paper's timeshare class exists so a compute-bound thread cannot
//! monopolize its processor: the clock tick decays the running thread's
//! priority and a freshly woken sleeper outranks it. This ablation puts a
//! number on that with the actual scheduler under `SUNMT_PREEMPT=timer`
//! at its fixed 10 ms tick: unbound hogs spin through
//! `thread_preempt_point()` on every pool LWP while off-pool posts wake
//! higher-priority probes, and each wake's post-to-running latency is
//! timed. With the tick working, a wake waits at most about one tick for
//! a hog to be switched out; the gate holds the p99 under two ticks
//! (`real_p99_us`) and requires the preempt path to have run at all
//! (`real_preempts`). The preempt and decay counters come from
//! `sunmt::stats()`.
//!
//! `--smoke` shrinks the budget for CI; `--json PATH` writes the
//! machine-readable table (committed as `BENCH_preempt.json`).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use sunmt::sync::{Sema, SyncType};
use sunmt_bench::PaperTable;

/// Percentile over an unsorted latency sample (nearest-rank).
fn percentile(lats: &mut [u64], p: f64) -> u64 {
    assert!(!lats.is_empty());
    lats.sort_unstable();
    let rank = ((p / 100.0) * lats.len() as f64).ceil() as usize;
    lats[rank.clamp(1, lats.len()) - 1]
}

/// Real-library section: hogs spin through `thread_preempt_point()` on
/// every pool LWP; off-pool posts wake `probes` higher-priority threads
/// and each wake's post-to-running latency is timed. Returns the wake
/// latencies in microseconds.
fn real_library_wakes(lwps: usize, probes: usize, rounds: usize) -> Vec<u64> {
    sunmt::set_concurrency(lwps).expect("setconcurrency");
    // "The initial thread priority ... is set to the same values as its
    // creator": spawn everything at the probes' priority so a probe is
    // born outranking the hogs (a hog demotes itself once running).
    let old_pri = sunmt::set_priority(None, 20).expect("set_priority");
    let stop = Arc::new(AtomicBool::new(false));
    let epoch = Instant::now();

    // One hog per LWP, at a low timeshare priority, hitting the
    // safepoint on every iteration of its compute loop.
    let hog_ids: Vec<_> = (0..lwps)
        .map(|_| {
            let stop = Arc::clone(&stop);
            sunmt::ThreadBuilder::new()
                .flags(sunmt::CreateFlags::WAIT)
                .spawn(move || {
                    let _ = sunmt::set_priority(None, 5);
                    while !stop.load(Ordering::Relaxed) {
                        for _ in 0..64 {
                            std::hint::black_box(0u64);
                        }
                        sunmt::api::thread_preempt_point();
                    }
                })
                .expect("spawn hog")
        })
        .collect();

    struct Probe {
        go: Sema,
        done: Sema,
        posted_ns: AtomicU64,
    }
    let lats = Arc::new(Mutex::new(Vec::new()));
    let probe_state: Vec<_> = (0..probes)
        .map(|_| {
            Arc::new(Probe {
                go: Sema::new(0, SyncType::DEFAULT),
                done: Sema::new(0, SyncType::DEFAULT),
                posted_ns: AtomicU64::new(0),
            })
        })
        .collect();
    let probe_ids: Vec<_> = probe_state
        .iter()
        .map(|st| {
            let st = Arc::clone(st);
            let lats = Arc::clone(&lats);
            sunmt::ThreadBuilder::new()
                .flags(sunmt::CreateFlags::WAIT)
                .spawn(move || {
                    let mut mine = Vec::with_capacity(rounds);
                    for _ in 0..rounds {
                        sunmt::sync::api::sema_p(&st.go);
                        let woke = epoch.elapsed().as_nanos() as u64;
                        mine.push((woke - st.posted_ns.load(Ordering::Acquire)) / 1_000);
                        sunmt::sync::api::sema_v(&st.done);
                    }
                    lats.lock().unwrap().extend(mine);
                })
                .expect("spawn probe")
        })
        .collect();

    // Strict ping-pong per probe: post, then wait for the handled ack,
    // so `posted_ns` is never overwritten while a wake is in flight. The
    // settle sleep lets every probe park and the hogs reclaim the LWPs —
    // without it the next post lands while the probe still runs and the
    // "wake" never needs a preemption at all.
    for _ in 0..rounds {
        std::thread::sleep(std::time::Duration::from_millis(3));
        for st in &probe_state {
            st.posted_ns
                .store(epoch.elapsed().as_nanos() as u64, Ordering::Release);
            sunmt::sync::api::sema_v(&st.go);
        }
        for st in &probe_state {
            sunmt::sync::api::sema_p(&st.done);
        }
    }
    for id in probe_ids {
        sunmt::wait(Some(id)).expect("wait probe");
    }
    stop.store(true, Ordering::Relaxed);
    for id in hog_ids {
        sunmt::wait(Some(id)).expect("wait hog");
    }
    let _ = sunmt::set_priority(None, old_pri);
    Arc::try_unwrap(lats).unwrap().into_inner().unwrap()
}

fn main() {
    // A preemption bench's failure mode is a hang (a hog that never gets
    // preempted pins its LWP forever): bound the blast radius.
    std::thread::spawn(|| {
        std::thread::sleep(std::time::Duration::from_secs(180));
        eprintln!("abl_preempt: watchdog fired — a probe never got dispatched");
        std::process::exit(3);
    });

    let smoke = std::env::args().any(|a| a == "--smoke");
    let (lwps, probes, rounds) = if smoke { (2, 2, 40) } else { (2, 2, 200) };

    let mut t = PaperTable::new(
        "Ablation: timer-driven preemption — probe wake-to-run latency onto \
         hog-occupied LWPs (real library, 10 ms tick, us)",
    );

    // The env must be set before `init()` primes the mode.
    std::env::set_var("SUNMT_PREEMPT", "timer");
    sunmt::init();
    let before = sunmt::stats();
    let mut lats = real_library_wakes(lwps, probes, rounds);
    let after = sunmt::stats();
    let preempts = after.preempts - before.preempts;
    let decays = after.decays - before.decays;
    let p50 = percentile(&mut lats, 50.0);
    let p99 = percentile(&mut lats, 99.0);
    let max = *lats.last().expect("no wakes");
    t.row("real library: p50 wake-to-run", p50 as f64);
    t.row("real library: p99 wake-to-run", p99 as f64);
    t.row("real library: max wake-to-run", max as f64);
    t.note(format!(
        "real: lwps={lwps} probes={probes} rounds={rounds} tick_us=10000 \
         real_p50_us={p50} real_p99_us={p99} real_max_us={max} \
         real_preempts={preempts} real_decays={decays}"
    ));

    t.print();
    if let Err(e) = t.write_json_if_requested("abl_preempt", std::env::args()) {
        eprintln!("abl_preempt: {e}");
        std::process::exit(2);
    }

    // Shape checks: the tick must have run the decay path and switched a
    // hog out. The latency bound is the gate's (ci/bench_gate.py).
    assert!(decays > 0, "no priority decays under SUNMT_PREEMPT=timer");
    assert!(
        preempts > 0,
        "no hog was preempted under SUNMT_PREEMPT=timer"
    );
    println!("\nshape check: OK (p99 {p99}us, {preempts} preempts, {decays} decays)");
}
