//! ABL-IO-SCALE — the C100K connection-scaling sweep over the sharded
//! poller (see `sunmt_bench::io_scale` for the experiment design).
//!
//! Modes:
//!   `--cell <conns> <lwps> <rounds>`  run ONE matrix cell in this
//!       process and print its result line (spawned by the sweep; the
//!       fresh process is what lets each cell's LWP count fix its shard
//!       count)
//!   `--smoke`                sweep 1k connections x {1,2,4} LWPs (CI)
//!   `--connections a,b,..`   override the connection axis
//!   `--lwps a,b,..`          override the LWP axis
//!   `--rounds n`             burst rounds per cell
//!   `--json <path>`          write a standalone JSON table
//!   `--merge-json <path>`    splice the scaling rows/notes into an
//!       existing `BENCH_io.json` from `abl_io_server`
//!   `--require-speedup x.y`  fail unless the widest pool beats the
//!       1-LWP cell by this factor at the top connection count; for
//!       multi-core machines (the nightly C100K job) — meaningless on
//!       the 1-CPU containers the smoke sweep tolerates
//!
//! The full sweep (`--connections 10000,50000,100000 --lwps 1,2,4`) is
//! nightly-only: 100k connections needs `vm.max_map_count` raised for
//! the per-thread stacks and a ~1M `RLIMIT_NOFILE` hard limit.

use sunmt_bench::io_scale;

fn list_flag(args: &[String], flag: &str) -> Option<Vec<usize>> {
    let i = args.iter().position(|a| a == flag)?;
    let vals = args.get(i + 1).unwrap_or_else(|| {
        eprintln!("abl_io_scale: {flag} needs a comma-separated list");
        std::process::exit(2);
    });
    Some(
        vals.split(',')
            .map(|v| v.trim().parse().expect("numeric list entry"))
            .collect(),
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();

    if let Some(i) = args.iter().position(|a| a == "--cell") {
        let conns: usize = args[i + 1].parse().expect("--cell <conns> <lwps> <rounds>");
        let lwps: usize = args[i + 2].parse().expect("--cell <conns> <lwps> <rounds>");
        let rounds: usize = args[i + 3].parse().expect("--cell <conns> <lwps> <rounds>");
        let cell = io_scale::run_cell(conns, lwps, rounds);
        println!("{}", io_scale::render_cell(&cell));
        return;
    }

    let smoke = args.iter().any(|a| a == "--smoke");
    let conns_list = list_flag(&args, "--connections").unwrap_or_else(|| {
        if smoke {
            vec![1000]
        } else {
            vec![10_000]
        }
    });
    let lwps_list = list_flag(&args, "--lwps").unwrap_or_else(|| vec![1, 2, 4]);
    let rounds = list_flag(&args, "--rounds")
        .map(|v| v[0])
        .unwrap_or(if smoke { 6 } else { 20 });

    let exe = std::env::current_exe().expect("current_exe");
    let cells = io_scale::run_matrix(&exe, &conns_list, &lwps_list, rounds);
    let t = io_scale::paper_table(&cells);
    t.print();
    if let Err(e) = t
        .write_json_if_requested("abl_io_scale", args.clone())
        .and_then(|()| t.merge_json_if_requested("abl_io_scale", args.clone()))
    {
        eprintln!("abl_io_scale: {e}");
        std::process::exit(2);
    }

    // Shape checks — loose on purpose (CI machines are noisy); the hard
    // numeric floors/ceilings live in ci/bench_gate.py against the
    // committed trajectory.
    let max_conns = cells.iter().map(|c| c.conns).max().unwrap();
    let top: Vec<_> = cells.iter().filter(|c| c.conns == max_conns).collect();
    for c in &top {
        assert_eq!(
            c.shards, c.lwps,
            "shape check failed: the poller must derive one shard per pool LWP"
        );
        assert!(
            c.thpt_ops_s > 0.0 && c.p99_us > 0.0,
            "shape check failed: degenerate cell {c:?}"
        );
    }
    let need_speedup = args
        .iter()
        .position(|a| a == "--require-speedup")
        .map(|i| args[i + 1].parse::<f64>().expect("--require-speedup x.y"))
        .unwrap_or(0.5);
    if let (Some(base), Some(best)) = (
        top.iter().min_by_key(|c| c.lwps),
        top.iter().max_by_key(|c| c.lwps),
    ) {
        if best.lwps > base.lwps {
            assert!(
                best.thpt_ops_s > need_speedup * base.thpt_ops_s,
                "shape check failed: {} LWPs reached {:.0} ops/s vs {:.0} at {} LWP(s) — \
                 required a {need_speedup:.2}x speedup",
                best.lwps,
                best.thpt_ops_s,
                base.thpt_ops_s,
                base.lwps
            );
        }
    }
    println!(
        "\nshape check: OK ({} cells, max {max_conns} connections)",
        cells.len()
    );
}
