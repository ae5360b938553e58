//! ABL-IO-SCALE — the connection-scaling axis of ABL-IO (the C100K
//! shape).
//!
//! ABL-IO proves the per-idle-client claim at a fixed pool; this
//! experiment sweeps the *connections × pool-LWPs* matrix and measures
//! what the sharded poller buys: with one poller shard per pool LWP,
//! echo throughput should scale with the LWP count at high connection
//! counts instead of serializing behind a single poller, wake latency
//! should stay bounded, and the `epoll_ctl` calls per operation should
//! stay flat.
//!
//! Each matrix cell runs in a **fresh subprocess** (`--cell C L`): the
//! poller's shard count is the pool size at its first use, so a cell
//! must start its own process and `set_concurrency(L)` before any I/O
//! to get exactly L shards. Inside a cell: C socketpair connections, one
//! unbound echo thread per connection on an L-LWP pool, a rotating
//! active window of clients driving bursts (the "mostly idle"
//! window-server shape), and a single-op round-trip phase sampling wake
//! latency. The cell raises `RLIMIT_NOFILE` itself (2 fds per
//! connection) — the 100k sweep also needs `vm.max_map_count` raised for
//! the per-thread stacks, which the nightly CI job does.

use sunmt::{CreateFlags, ThreadBuilder};
use sunmt_sys::time::monotonic_now;

use crate::PaperTable;

/// What each client sends per operation.
const MSG: &[u8] = b"ping";

/// Echo-server thread stack: tiny, to keep the 100k-thread cell inside
/// `vm.max_map_count` and physical memory.
const SERVER_STACK: usize = 32 * 1024;

/// Clients driven concurrently per throughput burst.
const WINDOW: usize = 512;

/// Unbound driver threads sharing the burst window. Fixed across cells
/// so every cell offers the same concurrency; only the pool width under
/// it varies.
const DRIVERS: usize = 16;

/// Single-op round trips sampled for the wake-latency percentile.
const LAT_SAMPLES: usize = 200;

/// One matrix cell's measured outcome (parsed back from the cell
/// subprocess's stdout).
#[derive(Clone, Debug)]
pub struct CellResult {
    /// Connections served.
    pub conns: usize,
    /// Pool LWPs (= poller shards) serving them.
    pub lwps: usize,
    /// Poller shards actually created (sanity: must equal `lwps`).
    pub shards: usize,
    /// Echo operations per second over the burst phase.
    pub thpt_ops_s: f64,
    /// p99 single-op round-trip (wake) latency, microseconds.
    pub p99_us: f64,
    /// `epoll_ctl` calls per echo operation.
    pub ctl_syscalls_per_op: f64,
}

/// Runs one cell **in this process**. The caller is the `--cell`
/// subprocess: the pool and poller are configured here and die with the
/// process, which is what keeps the matrix cells independent.
pub fn run_cell(conns: usize, lwps: usize, rounds: usize) -> CellResult {
    // Size the workload to the fd budget we actually got: two fds per
    // connection plus slack for the shards' epoll fds. The
    // nightly job raises the hard limit to ~1M before the 100k sweep;
    // elsewhere we degrade to what the environment allows rather than
    // dying on EMFILE at the tail of the socketpair loop.
    let achieved =
        sunmt_sys::resource::raise_nofile((2 * conns + 512) as u64).expect("raise RLIMIT_NOFILE");
    let conns = conns
        .min((achieved.saturating_sub(512) / 2) as usize)
        .max(1);
    sunmt::init();
    sunmt::set_concurrency(lwps).expect("set_concurrency");

    let pairs: Vec<(i32, i32)> = (0..conns)
        .map(|_| sunmt_io::socketpair_stream().expect("socketpair"))
        .collect();
    let ids: Vec<_> = pairs
        .iter()
        .map(|&(srv, _)| {
            ThreadBuilder::new()
                .flags(CreateFlags::WAIT)
                .stack_size(SERVER_STACK)
                .spawn(move || {
                    let mut buf = [0u8; 64];
                    loop {
                        let n = sunmt_io::read(srv, &mut buf).expect("server read");
                        if n == 0 {
                            break;
                        }
                        sunmt_io::write_all(srv, &buf[..n]).expect("server echo");
                    }
                })
                .expect("spawn server thread")
        })
        .collect();

    // Phase 1: wake latency. Single-op round trips, each against a
    // different (parked) server thread spread across the fd space.
    let samples = LAT_SAMPLES.min(conns);
    let mut lats_us = Vec::with_capacity(samples);
    for s in 0..samples {
        let (_, cli) = pairs[s * conns / samples];
        let t0 = monotonic_now();
        sunmt_io::write_all(cli, MSG).expect("latency write");
        read_exact(cli, MSG.len());
        lats_us.push((monotonic_now() - t0).as_secs_f64() * 1e6);
    }
    lats_us.sort_by(|a, b| a.total_cmp(b));
    let p99_us = lats_us[(lats_us.len() * 99 / 100).min(lats_us.len() - 1)];

    // Phase 2: throughput. A fixed crew of unbound driver threads bursts
    // round trips over a rotating window of connections; everyone outside
    // the window stays parked (the mostly-idle population whose
    // registrations the shards carry). The crew size is constant across
    // cells so the offered concurrency never changes — only the LWP count
    // (= shard count) underneath it does, which is the axis under test.
    let window = WINDOW.min(conns);
    let drivers = DRIVERS.min(window);
    let chunk = window / drivers;
    let clients: std::sync::Arc<Vec<i32>> =
        std::sync::Arc::new(pairs.iter().map(|&(_, cli)| cli).collect());
    let io0 = sunmt_io::stats();
    let t0 = monotonic_now();
    let crew: Vec<_> = (0..drivers)
        .map(|d| {
            let clients = std::sync::Arc::clone(&clients);
            ThreadBuilder::new()
                .flags(CreateFlags::WAIT)
                .spawn(move || {
                    // Connections are partitioned per (round, driver), so
                    // no two drivers ever touch the same fd in a round.
                    for r in 0..rounds {
                        let off = r * window;
                        for k in d * chunk..(d + 1) * chunk {
                            let cli = clients[(off + k) % clients.len()];
                            sunmt_io::write_all(cli, MSG).expect("burst write");
                            read_exact(cli, MSG.len());
                        }
                    }
                })
                .expect("spawn driver thread")
        })
        .collect();
    for id in crew {
        sunmt::wait(Some(id)).expect("join driver thread");
    }
    let elapsed = monotonic_now() - t0;
    let ops = (rounds * drivers * chunk) as u64;
    let io1 = sunmt_io::stats();

    for &(_, cli) in &pairs {
        sunmt_io::close(cli).expect("close client end");
    }
    for id in ids {
        sunmt::wait(Some(id)).expect("join server thread");
    }
    for &(srv, _) in &pairs {
        let _ = sunmt_io::close(srv);
    }

    CellResult {
        conns,
        lwps,
        shards: io1.shards,
        thpt_ops_s: ops as f64 / elapsed.as_secs_f64().max(1e-9),
        p99_us,
        ctl_syscalls_per_op: (io1.ctl_syscalls - io0.ctl_syscalls) as f64 / ops.max(1) as f64,
    }
}

fn read_exact(fd: i32, want: usize) {
    let mut buf = [0u8; 64];
    let mut got = 0;
    while got < want {
        let n = sunmt_io::read(fd, &mut buf[got..want]).expect("client read");
        assert!(n > 0, "server hung up mid-echo");
        got += n;
    }
}

/// Renders a cell result as the one-line wire format the parent parses.
pub fn render_cell(c: &CellResult) -> String {
    format!(
        "abl_io_scale_cell conns={} lwps={} shards={} thpt={:.1} p99_us={:.1} \
         ctl_per_op={:.4}",
        c.conns, c.lwps, c.shards, c.thpt_ops_s, c.p99_us, c.ctl_syscalls_per_op
    )
}

/// Parses [`render_cell`]'s line back (from anywhere in the cell's
/// stdout).
pub fn parse_cell(stdout: &str) -> Option<CellResult> {
    let line = stdout
        .lines()
        .find(|l| l.starts_with("abl_io_scale_cell "))?;
    let mut kv = std::collections::HashMap::new();
    for tok in line.split_whitespace().skip(1) {
        let (k, v) = tok.split_once('=')?;
        kv.insert(k, v);
    }
    Some(CellResult {
        conns: kv.get("conns")?.parse().ok()?,
        lwps: kv.get("lwps")?.parse().ok()?,
        shards: kv.get("shards")?.parse().ok()?,
        thpt_ops_s: kv.get("thpt")?.parse().ok()?,
        p99_us: kv.get("p99_us")?.parse().ok()?,
        ctl_syscalls_per_op: kv.get("ctl_per_op")?.parse().ok()?,
    })
}

/// Spawns one `--cell` subprocess per matrix cell and collects results.
/// `exe` is this binary (`/proc/self/exe`).
pub fn run_matrix(
    exe: &std::path::Path,
    conns_list: &[usize],
    lwps_list: &[usize],
    rounds: usize,
) -> Vec<CellResult> {
    let mut out = Vec::new();
    for &c in conns_list {
        for &l in lwps_list {
            let r = std::process::Command::new(exe)
                .args([
                    "--cell",
                    &c.to_string(),
                    &l.to_string(),
                    &rounds.to_string(),
                ])
                .output()
                .expect("spawn cell subprocess");
            let stdout = String::from_utf8_lossy(&r.stdout);
            assert!(
                r.status.success(),
                "cell conns={c} lwps={l} failed:\n{stdout}\n{}",
                String::from_utf8_lossy(&r.stderr)
            );
            let cell = parse_cell(&stdout)
                .unwrap_or_else(|| panic!("cell conns={c} lwps={l}: no result line:\n{stdout}"));
            println!("{}", render_cell(&cell));
            out.push(cell);
        }
    }
    out
}

/// Renders the matrix as a paper-style table. The machine-readable notes
/// (`scale_thpt_per_lwp=`, `scale_p99_wake_us=`, `scale_syscalls_per_op=`,
/// `scale_speedup=`) are what `ci/bench_gate.py` checks in
/// `BENCH_io.json`; rows report per-op time so the table reads like the
/// others.
pub fn paper_table(cells: &[CellResult]) -> PaperTable {
    let max_conns = cells.iter().map(|c| c.conns).max().unwrap_or(0);
    let top: Vec<&CellResult> = cells.iter().filter(|c| c.conns == max_conns).collect();
    let base = top
        .iter()
        .min_by_key(|c| c.lwps)
        .expect("at least one cell");
    let best = top
        .iter()
        .max_by_key(|c| c.lwps)
        .expect("at least one cell");
    let speedup = best.thpt_ops_s / base.thpt_ops_s.max(1e-9);
    let thpt_per_lwp = top
        .iter()
        .map(|c| c.thpt_ops_s / c.lwps as f64)
        .fold(f64::INFINITY, f64::min);
    let p99 = cells.iter().map(|c| c.p99_us).fold(0.0, f64::max);
    let ctl_per_op = cells
        .iter()
        .map(|c| c.ctl_syscalls_per_op)
        .fold(0.0, f64::max);

    let mut t = PaperTable::new(format!(
        "ABL-IO-SCALE: echo matrix to {max_conns} connections, sharded poller (us/op)"
    ));
    for c in cells {
        t.row(
            format!("scale c={} lwps={}", c.conns, c.lwps),
            1e6 / c.thpt_ops_s.max(1e-9),
        );
    }
    t.note(format!("scale_conns={max_conns} scale_lwps={}", best.lwps))
        .note(format!(
            "scale_thpt_per_lwp={thpt_per_lwp:.1} scale_speedup={speedup:.2}"
        ))
        .note(format!("scale_p99_wake_us={p99:.1}"))
        .note(format!("scale_syscalls_per_op={ctl_per_op:.4}"));
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_line_round_trips() {
        let c = CellResult {
            conns: 1000,
            lwps: 4,
            shards: 4,
            thpt_ops_s: 12345.6,
            p99_us: 789.2,
            ctl_syscalls_per_op: 0.25,
        };
        let parsed = parse_cell(&format!("noise\n{}\nmore", render_cell(&c))).unwrap();
        assert_eq!(parsed.conns, 1000);
        assert_eq!(parsed.lwps, 4);
        assert!((parsed.ctl_syscalls_per_op - 0.25).abs() < 1e-9);
    }

    #[test]
    fn paper_table_reports_worst_case_metrics() {
        let mk = |conns, lwps, thpt, p99| CellResult {
            conns,
            lwps,
            shards: lwps,
            thpt_ops_s: thpt,
            p99_us: p99,
            ctl_syscalls_per_op: 0.5,
        };
        let cells = vec![
            mk(100, 1, 1000.0, 50.0),
            mk(1000, 1, 900.0, 80.0),
            mk(1000, 4, 2700.0, 60.0),
        ];
        let t = paper_table(&cells);
        let j = t.to_json("x");
        // Worst per-LWP throughput at the max connection count:
        // min(900/1, 2700/4) = 675; speedup 2700/900 = 3; worst p99 80.
        assert!(j.contains("scale_thpt_per_lwp=675.0"), "{j}");
        assert!(j.contains("scale_speedup=3.00"), "{j}");
        assert!(j.contains("scale_p99_wake_us=80.0"), "{j}");
    }

    /// A tiny in-process cell: the full subprocess matrix is exercised by
    /// the `abl_io_scale` binary in CI.
    #[test]
    fn run_cell_smoke() {
        let c = run_cell(16, 2, 3);
        assert_eq!(c.conns, 16);
        assert!(c.thpt_ops_s > 0.0);
        assert!(c.p99_us > 0.0);
        assert!(c.shards >= 1);
    }
}
