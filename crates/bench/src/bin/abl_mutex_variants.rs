//! ABL-MUTEX — contention-scaling matrix over the mutex variants: sleep
//! (default), spin and adaptive.
//!
//! Each cell runs every worker against one lock for a fixed wall-time
//! window and records, per thread, how many times it got the lock and
//! how long each `mutex_enter` took (cycle-counter pairs around the
//! enter, `trace::clock::now_cycles`, so a cell's per-op number is not
//! polluted by clock syscalls). Two tables come out of a run:
//!
//!   * throughput/latency — mean enter latency per cell, plus total
//!     acquisitions/second in the notes;
//!   * fairness — per-cell acquisition spread `max/min` across workers,
//!     the starvation measure: how far barging lets one thread
//!     monopolize the lock.
//!
//! The matrix crosses worker placement (bound LWPs vs unbound threads
//! multiplexed over a small pool) with LWP count and critical-section
//! hold time. Modes:
//!
//!   `--smoke`             2-LWP bound + 8-thread/2-LWP unbound cells only
//!   `--duration-ms n`     per-cell wall window (default 60 smoke / 200)
//!   `--json <path>`       write both tables into one JSON document
//!   `--merge-json <path>` splice both tables into an existing document
//!
//! Printed metric (in the notes, not gated): `sleep_fairness_spread`.
//! The queue-lock rows this matrix once carried are frozen in
//! EXPERIMENTS.md (ABL-MUTEX).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use sunmt::{CreateFlags, ThreadBuilder};
use sunmt_bench::PaperTable;
use sunmt_lwp::Lwp;
use sunmt_sync::{Mutex, SyncType};
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

/// Reduces per-worker `(count, cycles)` slots into one [`Cell`].
#[allow(clippy::too_many_arguments)] // Cell-shaped argument list, used twice.
fn reduce(
    variant: &'static str,
    mode: &'static str,
    workers: usize,
    lwps: usize,
    hold_ns: u64,
    dur_ms: u64,
    counts: &[AtomicU64],
    cycles: &[AtomicU64],
) -> Cell {
    let per: Vec<u64> = counts.iter().map(|c| c.load(Ordering::Relaxed)).collect();
    let total: u64 = per.iter().sum();
    let total_cycles: u64 = cycles.iter().map(|c| c.load(Ordering::Relaxed)).sum();
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

/// One cell with every worker bound to its own LWP.
fn run_bound(
    variant: &'static str,
    kind: SyncType,
    lwps: usize,
    hold_ns: u64,
    dur_ms: u64,
) -> Cell {
    let m = Arc::new(Mutex::new(kind));
    let go = Arc::new(AtomicBool::new(false));
    let stop = Arc::new(AtomicBool::new(false));
    let counts: Arc<Vec<AtomicU64>> = Arc::new((0..lwps).map(|_| AtomicU64::new(0)).collect());
    let cycles: Arc<Vec<AtomicU64>> = Arc::new((0..lwps).map(|_| AtomicU64::new(0)).collect());
    let hold_cycles = (hold_ns as f64 / clock::ns_per_cycle()) as u64;
    let workers: Vec<Lwp> = (0..lwps)
        .map(|i| {
            let (m, go, stop) = (Arc::clone(&m), Arc::clone(&go), Arc::clone(&stop));
            let (counts, cycles) = (Arc::clone(&counts), Arc::clone(&cycles));
            Lwp::spawn(move || {
                let (c, e) = work(&m, &go, &stop, hold_cycles);
                counts[i].store(c, Ordering::Relaxed);
                cycles[i].store(e, Ordering::Relaxed);
            })
            .expect("spawn")
        })
        .collect();
    go.store(true, Ordering::Release);
    std::thread::sleep(std::time::Duration::from_millis(dur_ms));
    stop.store(true, Ordering::Relaxed);
    for w in workers {
        w.join();
    }
    reduce(
        variant, "bound", lwps, lwps, hold_ns, dur_ms, &counts, &cycles,
    )
}

/// One cell with `threads` unbound threads multiplexed over an
/// `lwps`-wide pool — the M:N placement, where waiters park on the
/// user-level sleep queue instead of in the kernel.
fn run_unbound(
    variant: &'static str,
    kind: SyncType,
    threads: usize,
    lwps: usize,
    hold_ns: u64,
    dur_ms: u64,
) -> Cell {
    sunmt::set_concurrency(lwps).expect("setconcurrency");
    let m = Arc::new(Mutex::new(kind));
    let go = Arc::new(AtomicBool::new(false));
    let stop = Arc::new(AtomicBool::new(false));
    let counts: Arc<Vec<AtomicU64>> = Arc::new((0..threads).map(|_| AtomicU64::new(0)).collect());
    let cycles: Arc<Vec<AtomicU64>> = Arc::new((0..threads).map(|_| AtomicU64::new(0)).collect());
    let hold_cycles = (hold_ns as f64 / clock::ns_per_cycle()) as u64;
    let ids: Vec<_> = (0..threads)
        .map(|i| {
            let (m, go, stop) = (Arc::clone(&m), Arc::clone(&go), Arc::clone(&stop));
            let (counts, cycles) = (Arc::clone(&counts), Arc::clone(&cycles));
            ThreadBuilder::new()
                .flags(CreateFlags::WAIT)
                .spawn(move || {
                    let (c, e) = work(&m, &go, &stop, hold_cycles);
                    counts[i].store(c, Ordering::Relaxed);
                    cycles[i].store(e, Ordering::Relaxed);
                })
                .expect("spawn")
        })
        .collect();
    go.store(true, Ordering::Release);
    std::thread::sleep(std::time::Duration::from_millis(dur_ms));
    stop.store(true, Ordering::Relaxed);
    for id in ids {
        sunmt::wait(Some(id)).expect("wait");
    }
    reduce(
        variant, "unbound", threads, lwps, hold_ns, dur_ms, &counts, &cycles,
    )
}

const VARIANTS: &[(&str, SyncType)] = &[
    ("sleep", SyncType::DEFAULT),
    ("spin", SyncType::SPIN),
    ("adaptive", SyncType::ADAPTIVE),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let dur_ms: u64 = args
        .iter()
        .position(|a| a == "--duration-ms")
        .map(|i| args[i + 1].parse().expect("--duration-ms n"))
        .unwrap_or(if smoke { 60 } else { 200 });

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
                let cell = match mode {
                    "bound" => run_bound(variant, kind, lwps, hold_ns, dur_ms),
                    _ => run_unbound(variant, kind, workers, lwps, hold_ns, dur_ms),
                };
                cells.push(cell);
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

    // --json writes the throughput table, then the fairness table is
    // spliced into the same document; --merge-json splices both.
    if let Some(i) = args.iter().position(|a| a == "--json") {
        let Some(path) = args.get(i + 1) else {
            eprintln!("abl_mutex_variants: --json needs a path");
            std::process::exit(2);
        };
        let doc = thpt.to_json("abl_mutex_variants");
        let doc = fair.merge_into_json(&doc).expect("merge fairness table");
        if let Err(e) = std::fs::write(path, doc) {
            eprintln!("abl_mutex_variants: write {path}: {e}");
            std::process::exit(2);
        }
        println!("\nwrote {path}");
    }
    if let Err(e) = thpt
        .merge_json_if_requested("abl_mutex_variants", args.clone())
        .and_then(|()| fair.merge_json_if_requested("abl_mutex_variants", args.clone()))
    {
        eprintln!("abl_mutex_variants: {e}");
        std::process::exit(2);
    }

    // Shape check — loose on purpose (1-CPU CI hosts).
    for c in &cells {
        assert!(
            c.thpt_ops_s > 0.0,
            "shape check failed: degenerate cell {} made no progress",
            c.label()
        );
    }
    println!(
        "\nshape check: OK ({} cells; sleep spread {sleep_fairness_spread:.2})",
        cells.len()
    );
}
