//! The repo's benchmark: five workloads against the real library, each in
//! a fresh process, with end-to-end metrics (tracing off) and per-layer
//! metrics (a separate traced run). See `benchmark/README.md`.
//!
//! ```text
//! sunmt-benchmark [--workload NAME|layers] [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! With `--workload` the last line of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`; without it every
//! workload runs in turn and each gets a `RESULT <workload> <json>` line.
//! The exit code is non-zero when an oracle failed.

mod harness;
mod layers;
mod report;
mod span;
mod workloads;

use std::io::{BufRead, BufReader, Write};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use report::Metric;

/// The seed used when none is given. 4242 is kept aside as the hold-out
/// seed: a claim is checked on it, never developed on it (README).
const DEFAULT_SEED: u64 = 1991;
/// Measured one-second windows when `--seconds` is not given.
const DEFAULT_SECONDS: usize = 16;
/// Fresh processes that share the measured windows of one run.
const PROCESSES: usize = 8;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: usize,
    trace: bool,
    /// Set by the parent on the processes it starts.
    child: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        child: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?),
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=60).contains(&a.seconds) {
                    return Err("--seconds must be 1..=60".into());
                }
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--traced" => a.trace = true,
            "--child" => a.child = true,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if let Some(w) = &a.workload {
        if w != "layers" && !workloads::NAMES.contains(&w.as_str()) {
            return Err(format!(
                "unknown workload {w}; one of {} or layers",
                workloads::NAMES.join(", ")
            ));
        }
    }
    Ok(a)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("sunmt-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let ok = match (args.child, args.workload.as_deref()) {
        (true, Some("layers")) => {
            for (name, value, unit) in layers::run_all() {
                Metric::layer(name, value, unit).print();
            }
            true
        }
        (true, Some(w)) => child_run(w, &args),
        (true, None) => {
            eprintln!("sunmt-benchmark: --child needs --workload");
            return ExitCode::from(2);
        }
        (false, Some("layers")) => {
            let p = run_child("layers", &args, 1, true);
            p.metrics.iter().for_each(|m| println!("  {}", m.pretty()));
            println!("{}", report::json_line(p.ok, 1, 0, &p.metrics));
            p.ok
        }
        (false, Some(w)) => {
            let (json, ok) = parent_run(w, &args);
            println!("{json}");
            ok
        }
        (false, None) => workloads::NAMES.iter().fold(true, |all_ok, w| {
            let (json, ok) = parent_run(w, &args);
            println!("RESULT {w} {json}\n");
            all_ok && ok
        }),
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

// ---------------------------------------------------------------------
// The parent: runs the workload in fresh processes and prints the result.

/// Runs this executable as a child with `windows` measured windows.
/// Returns the seconds from just before the process was created to its
/// `READY` line, the metrics it printed and whether it exited with
/// success. With `show`, every other line is passed on.
fn run_child(workload: &str, args: &Args, windows: usize, show: bool) -> Process {
    let exe = std::env::current_exe().expect("path of this executable");
    let t0 = Instant::now();
    let mut child = Command::new(exe)
        .args(["--child", "--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &windows.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .stdout(Stdio::piped())
        .spawn()
        .expect("start child process");
    let mut p = Process {
        ready_s: 0.0,
        metrics: Vec::new(),
        ok: false,
    };
    let out = child.stdout.take().expect("piped stdout");
    for line in BufReader::new(out).lines() {
        let line = line.expect("child output is text");
        if line == "READY" {
            p.ready_s = t0.elapsed().as_secs_f64();
        } else if let Some(m) = Metric::parse(&line) {
            p.metrics.push(m);
        } else if show {
            println!("  {line}");
        }
    }
    p.ok = child.wait().expect("wait for child process").success();
    p
}

struct Process {
    ready_s: f64,
    metrics: Vec<Metric>,
    ok: bool,
}

/// One run: `PROCESSES` fresh processes share the measured windows. A
/// process reports the median over its own windows; the run reports the
/// **mean over the processes**, because what differs between two
/// processes of one build is not an outlier to be discarded but a mode
/// (where the allocator and the kernel happened to put things moves
/// `db_read` by 10 %, steadily for the life of the process), and a later
/// change must be judged against the average over those modes. Counts
/// are summed; set-up time is the median.
fn parent_run(workload: &str, args: &Args) -> (String, bool) {
    // A traced process needs a window of each kind.
    let per_process = if args.trace { 2 } else { 1 };
    let procs = PROCESSES.min(args.seconds / per_process).max(1);
    println!(
        "== {workload} (seed {}, {} x 1 s windows over {procs} processes, {} s warm-up each, trace {}) ==",
        args.seed,
        args.seconds,
        harness::WARM_WINDOWS,
        u8::from(args.trace)
    );
    let runs: Vec<Process> = (0..procs)
        .map(|i| {
            let windows = args.seconds / procs + usize::from(i < args.seconds % procs);
            run_child(workload, args, windows, i == 0)
        })
        .collect();
    let mut ok = runs.iter().all(|p| p.ok);

    let mut metrics = Vec::new();
    if !args.trace {
        let setups: Vec<f64> = runs.iter().map(|p| p.ready_s).collect();
        metrics.push(
            Metric::e2e("setup_s", harness::median(&setups), "s").note(format!(
                "spread={:.3} processes={procs}",
                harness::spread(&setups)
            )),
        );
    }
    for first in &runs[0].metrics {
        let values: Vec<f64> = runs
            .iter()
            .filter_map(|p| p.metrics.iter().find(|m| m.name == first.name))
            .map(|m| m.value)
            .collect();
        let total: f64 = values.iter().sum();
        metrics.push(if first.class == "count" {
            Metric::new("count", &first.name, total, &first.unit)
        } else {
            Metric::new(
                &first.class,
                &first.name,
                total / values.len() as f64,
                &first.unit,
            )
            .note(format!(
                "spread={:.3} {}",
                harness::spread(&values),
                first.note
            ))
        });
    }
    metrics.iter().for_each(|m| println!("  {}", m.pretty()));
    if args.trace {
        println!("  -- isolated layer probes --");
        let probes = run_child("layers", args, 1, true);
        probes
            .metrics
            .iter()
            .for_each(|m| println!("  {}", m.pretty()));
        ok &= probes.ok;
        metrics.extend(probes.metrics);
    }

    let count = |name: &str| {
        metrics
            .iter()
            .find(|m| m.class == "count" && m.name == name)
            .map_or(0, |m| m.value as u64)
    };
    let (attempted, failed) = (count("attempted"), count("failed"));
    ok &= attempted > 0 && failed == 0;
    println!(
        "  fail_share: {} ({failed} of {attempted} operations failed their oracle)",
        failed as f64 / attempted.max(1) as f64
    );
    report::write_metrics_file(workload, args.trace, &metrics);
    let class = if args.trace { "layer" } else { "e2e" };
    let wanted: Vec<Metric> = metrics.into_iter().filter(|m| m.class == class).collect();
    (report::json_line(ok, attempted.max(1), failed, &wanted), ok)
}

// ---------------------------------------------------------------------
// The child: one workload, one process.

/// A child must not outlive its parent (a killed run would leave it
/// spinning) nor hang (a lost wakeup in the library would): a sleeping
/// kernel thread, outside the pool and the generator, ends the process in
/// either case.
fn start_watchdog(seconds: usize) {
    let parent = std::os::unix::process::parent_id();
    let deadline =
        Instant::now() + Duration::from_secs((harness::WARM_WINDOWS + seconds) as u64 + 60);
    std::thread::Builder::new()
        .name("bench-watchdog".into())
        .spawn(move || loop {
            std::thread::sleep(Duration::from_millis(200));
            if std::os::unix::process::parent_id() != parent {
                std::process::exit(3);
            }
            if Instant::now() > deadline {
                eprintln!("sunmt-benchmark: run did not finish within 60 s of its last window");
                std::process::exit(4);
            }
        })
        .expect("spawn watchdog thread");
}

fn child_run(workload: &str, args: &Args) -> bool {
    start_watchdog(args.seconds);
    // Calibrates the cycle clock (a 2 ms spin) as part of set-up.
    sunmt_trace::clock::ns_per_cycle();
    sunmt::init();
    let pool = workloads::pool_lwps(workload);
    sunmt::set_concurrency(pool).expect("set_concurrency");
    let prepared = workloads::setup(workload, args.seed).expect("workload name was checked");
    println!("READY");
    std::io::stdout().flush().expect("flush stdout");
    // The library reads its knobs from the environment; the benchmark
    // sets none, and says so if the caller did.
    let knobs: Vec<String> = std::env::vars()
        .filter(|(k, _)| k.starts_with("SUNMT_"))
        .map(|(k, v)| format!("{k}={v}"))
        .collect();
    println!(
        "config: nproc={} pool_lwps={} loop=closed sunmt_env=[{}]",
        harness::nproc(),
        sunmt::concurrency(),
        knobs.join(" "),
    );
    println!("sizes: {}", prepared.sizes);
    println!("input_checksum: {:#018x}", prepared.checksum);

    let data = harness::drive(args.seconds, args.trace);
    let extra_failed = (prepared.finish)();
    let data = harness::collect(data);
    report::report(
        workload,
        prepared.op_unit,
        prepared.span_shift,
        args.trace,
        &data,
        extra_failed,
    )
}
