//! ABL-MUTEX — contention-scaling matrix over the mutex variants: sleep
//! (default), spin and adaptive.
//!
//! Each cell runs every worker against one lock for a fixed wall-time
//! window and records, per thread, how many times it got the lock and
//! how long each `mutex_enter` took (cycle-counter pairs around the
//! enter, `trace::clock::now_cycles`, so a cell's per-op number is not
//! polluted by clock syscalls). Three tables come out of a run:
//!
//!   * throughput/latency — mean enter latency per cell, plus total
//!     acquisitions/second in the notes;
//!   * fairness — per-cell acquisition spread `max/min` across workers,
//!     the starvation measure: how far barging lets one thread
//!     monopolize the lock;
//!   * fast paths — the uncontended cost of every synchronization
//!     variable's common case, measured first, from one caller with
//!     nothing else running: mutex enter/exit per variant, sema p/v,
//!     rwlock reader and writer, a lock's new + first read + drop
//!     (private vs `SHARED`, DESIGN §16) and a signal with no waiter.
//!
//! The matrix crosses worker placement (bound LWPs vs unbound threads
//! multiplexed over a small pool) with LWP count and critical-section
//! hold time. Modes:
//!
//!   `--smoke`             2-LWP bound + 8-thread/2-LWP unbound cells only
//!   `--duration-ms n`     per-cell wall window (default 60 smoke / 200)
//!   `--json <path>`       write all three tables into one JSON document
//!   `--merge-json <path>` splice all three into an existing document
//!
//! Printed metric (in the notes, not gated): `sleep_fairness_spread`.
//! The queue-lock rows this matrix once carried are frozen in
//! EXPERIMENTS.md (ABL-MUTEX).

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use sunmt::{CreateFlags, ThreadBuilder};
use sunmt_bench::{median_ns, PaperTable};
use sunmt_lwp::Lwp;
use sunmt_sync::{Condvar, Mutex, RwLock, RwType, Sema, SyncType};
use sunmt_trace::clock;

/// One matrix cell's measurement.
struct Cell {
    variant: &'static str,
    mode: &'static str,
    workers: usize,
    lwps: usize,
    hold_ns: u64,
    /// Total acquisitions per second across all workers.
    thpt_ops_s: f64,
    /// Mean `mutex_enter` latency (us), cycle-pair timed.
    mean_enter_us: f64,
    /// Acquisition spread `max/min` across workers (min clamped to 1).
    spread: f64,
}

impl Cell {
    fn label(&self) -> String {
        format!(
            "{} {} {}w/{}lwp hold={}ns",
            self.variant, self.mode, self.workers, self.lwps, self.hold_ns
        )
    }
}

/// Spins for `ns` using the cycle counter — no clock syscalls inside
/// the critical section.
fn hold(cycles: u64) {
    if cycles == 0 {
        return;
    }
    let start = clock::now_cycles();
    while clock::now_cycles().wrapping_sub(start) < cycles {
        core::hint::spin_loop();
    }
}

/// The worker body: wait for the start gate (so spawn stagger cannot
/// gift the first worker an uncontended head start that poisons the
/// fairness spread), then acquire/hold/release until the stop flag,
/// timing each enter with a cycle pair and counting acquisitions.
fn work(m: &Mutex, go: &AtomicBool, stop: &AtomicBool, hold_cycles: u64) -> (u64, u64) {
    while !go.load(Ordering::Acquire) {
        std::thread::yield_now();
    }
    let mut count = 0u64;
    let mut enter_cycles = 0u64;
    while !stop.load(Ordering::Relaxed) {
        let t0 = clock::now_cycles();
        m.enter();
        enter_cycles += clock::now_cycles().wrapping_sub(t0);
        hold(hold_cycles);
        m.exit();
        count += 1;
    }
    (count, enter_cycles)
}

/// One matrix cell. `bound`: every worker on its own LWP. `unbound`:
/// `workers` unbound threads multiplexed over an `lwps`-wide pool — the
/// M:N placement, where waiters park on the user-level sleep queue
/// instead of in the kernel.
fn run_cell(
    variant: &'static str,
    kind: SyncType,
    mode: &'static str,
    workers: usize,
    lwps: usize,
    hold_ns: u64,
    dur_ms: u64,
) -> Cell {
    let m = Arc::new(Mutex::new(kind));
    let go = Arc::new(AtomicBool::new(false));
    let stop = Arc::new(AtomicBool::new(false));
    // Per worker: (acquisitions, enter cycles).
    let slots: Arc<Vec<(AtomicU64, AtomicU64)>> =
        Arc::new((0..workers).map(|_| Default::default()).collect());
    let hold_cycles = (hold_ns as f64 / clock::ns_per_cycle()) as u64;
    let body = |i: usize| {
        let (m, go, stop) = (Arc::clone(&m), Arc::clone(&go), Arc::clone(&stop));
        let slots = Arc::clone(&slots);
        move || {
            let (c, e) = work(&m, &go, &stop, hold_cycles);
            slots[i].0.store(c, Ordering::Relaxed);
            slots[i].1.store(e, Ordering::Relaxed);
        }
    };
    let window = || {
        go.store(true, Ordering::Release);
        std::thread::sleep(std::time::Duration::from_millis(dur_ms));
        stop.store(true, Ordering::Relaxed);
    };
    if mode == "bound" {
        let ws: Vec<Lwp> = (0..workers)
            .map(|i| Lwp::spawn(body(i)).expect("spawn"))
            .collect();
        window();
        for w in ws {
            w.join();
        }
    } else {
        sunmt::set_concurrency(lwps).expect("setconcurrency");
        let ids: Vec<_> = (0..workers)
            .map(|i| {
                ThreadBuilder::new()
                    .flags(CreateFlags::WAIT)
                    .spawn(body(i))
                    .expect("spawn")
            })
            .collect();
        window();
        for id in ids {
            sunmt::wait(Some(id)).expect("wait");
        }
    }

    let per: Vec<u64> = slots.iter().map(|s| s.0.load(Ordering::Relaxed)).collect();
    let total: u64 = per.iter().sum();
    let total_cycles: u64 = slots.iter().map(|s| s.1.load(Ordering::Relaxed)).sum();
    let max = per.iter().copied().max().unwrap_or(0);
    let min = per.iter().copied().min().unwrap_or(0);
    Cell {
        variant,
        mode,
        workers,
        lwps,
        hold_ns,
        thpt_ops_s: total as f64 / (dur_ms as f64 / 1e3),
        mean_enter_us: if total == 0 {
            0.0
        } else {
            clock::cycles_to_ns(total_cycles / total.max(1)) / 1e3
        },
        spread: max as f64 / min.max(1) as f64,
    }
}

const VARIANTS: &[(&str, SyncType)] = &[
    ("sleep", SyncType::DEFAULT),
    ("spin", SyncType::SPIN),
    ("adaptive", SyncType::ADAPTIVE),
];

/// Median over 5 samples of `iters` calls of `f`, in us/op.
fn fast_us(iters: u64, f: impl FnMut(u64)) -> f64 {
    median_ns(iters, 5, f) / 1e3
}

/// The fast-path table: every variable's uncontended common case. Also
/// returns the private and `SHARED` rwlock lifecycle costs (us) for the
/// shape check.
fn fast_paths(iters: u64) -> (PaperTable, f64, f64) {
    let mut t = PaperTable::new("ABL-MUTEX fast paths: uncontended cost (us/op), one caller");
    for &(variant, kind) in VARIANTS.iter().chain(&[("shared", SyncType::SHARED)]) {
        let m = Mutex::new(kind);
        let us = fast_us(iters, |_| {
            m.enter();
            m.exit();
        });
        t.row(format!("fast mutex enter/exit {variant}"), us);
    }
    let s = Sema::new(1, SyncType::DEFAULT);
    let us = fast_us(iters, |_| {
        s.p();
        s.v();
    });
    t.row("fast sema p/v", us);
    let rw = RwLock::new(SyncType::DEFAULT);
    for (name, how) in [("reader", RwType::Reader), ("writer", RwType::Writer)] {
        let us = fast_us(iters, |_| {
            rw.enter(how);
            rw.exit();
        });
        t.row(format!("fast rw {name} enter/exit"), us);
    }
    // A lock's life when it is read once: a private lock allocates its
    // reader slots under the writer bit on the first read and frees them
    // on drop; a SHARED lock counts in its state word and allocates
    // nothing.
    let life = |kind| {
        fast_us(iters, |_| {
            let l = black_box(RwLock::new(kind));
            l.enter(RwType::Reader);
            l.exit();
        })
    };
    let (private, shared) = (life(SyncType::DEFAULT), life(SyncType::SHARED));
    t.row("fast rw new+first read+drop private", private);
    t.row("fast rw new+first read+drop shared", shared);
    let cv = Condvar::new(SyncType::DEFAULT);
    t.row("fast cv_signal no waiter", fast_us(iters, |_| cv.signal()));
    t.note(format!(
        "fast paths: iters={iters} samples=5 median (not gated)"
    ));
    (t, private, shared)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let dur_ms: u64 = args
        .iter()
        .position(|a| a == "--duration-ms")
        .map(|i| args[i + 1].parse().expect("--duration-ms n"))
        .unwrap_or(if smoke { 60 } else { 200 });

    // The fast paths run first, in a process with no pool LWP yet.
    let (fast, rw_life, rw_life_shared) = fast_paths(if smoke { 200_000 } else { 2_000_000 });

    // (mode, workers, lwps) x hold_ns. Bound cells scale kernel-visible
    // contention; the unbound cell is the M:N placement with more
    // threads than LWPs.
    let configs: Vec<(&str, usize, usize)> = if smoke {
        vec![("bound", 2, 2), ("unbound", 8, 2)]
    } else {
        vec![("bound", 2, 2), ("bound", 4, 4), ("unbound", 8, 2)]
    };
    let holds: &[u64] = &[0, 2_000];

    let mut cells: Vec<Cell> = Vec::new();
    for &(mode, workers, lwps) in &configs {
        for &hold_ns in holds {
            for &(variant, kind) in VARIANTS {
                cells.push(run_cell(
                    variant, kind, mode, workers, lwps, hold_ns, dur_ms,
                ));
            }
        }
    }
    sunmt::set_concurrency(0).expect("setconcurrency");

    // The sleep lock's worst acquisition spread over the bound max-hold
    // cells. An unbound cell's spread measures the user scheduler's
    // rotation across more threads than LWPs, not the lock; it is in the
    // table only.
    let max_hold = *holds.iter().max().unwrap();
    let sleep_fairness_spread = cells
        .iter()
        .filter(|c| c.variant == "sleep" && c.mode == "bound" && c.hold_ns == max_hold)
        .map(|c| c.spread)
        .fold(0.0f64, f64::max);

    // ----------------------------------------------------------- tables
    let mut thpt = PaperTable::new("ABL-MUTEX: mean mutex_enter latency (us) per matrix cell");
    for c in &cells {
        thpt.row(c.label(), c.mean_enter_us);
    }
    thpt.note(format!("duration_ms={dur_ms} cells={}", cells.len()));
    for c in &cells {
        thpt.note(format!("thpt {} ops_s={:.0}", c.label(), c.thpt_ops_s));
    }
    thpt.print();
    println!();

    let mut fair = PaperTable::new("ABL-MUTEX fairness: acquisition spread max/min per cell");
    for c in &cells {
        fair.row(format!("spread {}", c.label()), c.spread);
    }
    fair.note(format!(
        "metric sleep_fairness_spread={sleep_fairness_spread:.3}"
    ));
    fair.print();
    println!();
    fast.print();

    // --json writes the throughput table, then the fairness and
    // fast-path tables are spliced into the same document; --merge-json
    // splices all three.
    if let Some(i) = args.iter().position(|a| a == "--json") {
        let Some(path) = args.get(i + 1) else {
            eprintln!("abl_mutex_variants: --json needs a path");
            std::process::exit(2);
        };
        let mut doc = thpt.to_json("abl_mutex_variants");
        for t in [&fair, &fast] {
            doc = t.merge_into_json(&doc).expect("merge table");
        }
        if let Err(e) = std::fs::write(path, doc) {
            eprintln!("abl_mutex_variants: write {path}: {e}");
            std::process::exit(2);
        }
        println!("\nwrote {path}");
    }
    for t in [&thpt, &fair, &fast] {
        if let Err(e) = t.merge_json_if_requested("abl_mutex_variants", args.clone()) {
            eprintln!("abl_mutex_variants: {e}");
            std::process::exit(2);
        }
    }

    // Shape check — loose on purpose (1-CPU CI hosts).
    for c in &cells {
        assert!(
            c.thpt_ops_s > 0.0,
            "shape check failed: degenerate cell {} made no progress",
            c.label()
        );
    }
    for v in fast.values() {
        assert!(
            v.is_finite() && v > 0.0,
            "shape check failed: fast path {v} us/op"
        );
    }
    // DESIGN §16 measured 28 vs 152 ns: a SHARED lock allocates nothing.
    assert!(
        rw_life_shared < rw_life,
        "shape check failed: SHARED rw lifecycle {rw_life_shared} us >= private {rw_life} us"
    );
    println!(
        "\nshape check: OK ({} cells; sleep spread {sleep_fairness_spread:.2}; \
         rw lifecycle shared < private)",
        cells.len()
    );
}
