#!/usr/bin/env python3
"""CI perf-regression gate over the committed BENCH_*.json artifacts.

One table drives every gate: each row names a committed benchmark JSON,
a metric regex looked up in its `notes`, a direction (floor-style gates
require the fresh value to stay *above* a baseline; ceiling-style gates
require it to stay *below* one), a baseline (the committed file's own
value, an absolute floor, or an absolute ceiling), and a tolerance.
The CI bench job regenerates `<name>.fresh.json` next to each committed
file and this script compares them all, printing one PASS/FAIL line per
gate and failing with every violated gate listed — never just the first.

Gated metrics:

* `BENCH_io.json` / `lwp_ratio` — bound LWPs per M:N LWP in the
  window-server workload (the paper's "fewer kernel resources" claim).
  Structural count, deterministic, gated exactly against the committed
  value.
* `BENCH_sched.json` / `sharded_speedup_4lwp` — virtual-time dispatch
  makespan of the global run queue over the sharded one at 4 LWPs.
  Deterministic simulation, gated against an absolute floor of 1.5x:
  sharding must beat the single-lock dispatcher by at least that much.
* `BENCH_check.json` / `schedules_per_sec` — aggregate throughput of
  the model-checking sweep. Wall-clock on a shared runner, so it gets a
  wide tolerance: fresh must stay within 4x of the committed rate.
* `BENCH_fig5.json` / `unbound_creates_per_ms` — steady-state unbound
  thread creation rate, the magazine-fed Figure 5 hot path. Wall-clock
  on a shared runner, so like the checker it gets the wide 4x band.
* `BENCH_stat.json` / `disabled_probe_ns` — cost of a *disabled*
  `sunmt-stat` probe pair (count + histogram), net of the baseline
  loop. Ceiling-gated near zero: a disabled probe is one relaxed load
  and a branch, and it must stay that way.
* `BENCH_stat.json` / `enabled_count_ns`, `enabled_hist_ns` — cost of
  *enabled* stat probes. Ceiling-gated at 10 ns/op: if enabling
  statistics stops being harmless the whole always-compiled-in design
  is void.
* `BENCH_chan.json` / `pipeline_msgs_per_ms` — throughput of the
  3-stage x 2-worker channel actor pipeline. Wall-clock on a shared
  runner, so it gets the wide 4x band against the committed value.
* `BENCH_chan.json` / `wake_chain_p99_us` — p99 of the send-to-
  receiver-running latency with the receiver parked. Ceiling-gated
  high above the measured tail: a thundering herd or a wakeup retry
  loop in the channel park path blows through it immediately.
* `BENCH_io.json` / `scale_thpt_per_lwp` — worst per-LWP echo
  throughput across the connection-scaling matrix at its highest
  connection count (`abl_io_scale`, merged into the same file as the
  base ABL-IO run). Wall-clock on a shared runner, so it gets the wide
  4x band: a shard that serializes behind a sibling's lock or a ctl
  batch that stops coalescing drops straight through it.
* `BENCH_io.json` / `scale_p99_wake_us` — worst p99 single-op wake
  latency across the matrix. Ceiling-gated far above the measured
  tail: a waiter that misses its shard's event and limps home on a
  retry path turns a ~100us wake into tens of milliseconds.
* `BENCH_preempt.json` / `p99_dispatch_us` — p99 probe dispatch
  latency onto hog-occupied shards in the virtual-time preemption
  simulation. Deterministic, ceiling-gated at two tick periods: a
  broken decay table or preemption check sends the tail straight to
  the hogs' voluntary-yield cadence, an order of magnitude above.
* `BENCH_preempt.json` / `starved_dispatches` — probes that waited
  more than 20 ticks for a processor in the same simulation. Timer
  preemption exists so this is exactly zero; ceiling-gated at zero.

`BENCH_mutex.json` (ABL-MUTEX, the sleep/spin/adaptive contention
matrix) is regenerated and uploaded but carries no gate; its
`sleep_fairness_spread` note is printed for reading, not compared.

Each violated gate also prints one machine-readable `GATE-FAIL {json}`
line (bench, metric, value, bound, direction, why) for tooling that
scrapes the CI log.

Usage: ci/bench_gate.py [repo-root]
"""

import json
import re
import sys


class Gate:
    def __init__(self, bench, metric, floor=None, ceiling=None, tolerance=0.0, why=""):
        self.bench = bench  # committed file name, e.g. BENCH_io.json
        self.metric = metric  # note key, matched as `<metric>=<float>`
        self.floor = floor  # absolute floor; None = use committed value
        self.ceiling = ceiling  # absolute ceiling; flips the direction
        self.tolerance = tolerance  # fraction of slack past the baseline
        self.why = why  # one-line consequence printed on failure
        assert floor is None or ceiling is None, "pick one direction"


GATES = [
    Gate(
        "BENCH_io.json",
        "lwp_ratio",
        tolerance=0.0,
        why="the M:N pool is using more LWPs relative to bound threads",
    ),
    Gate(
        "BENCH_sched.json",
        "sharded_speedup_4lwp",
        floor=1.5,
        tolerance=0.0,
        why="sharded run queues no longer beat the global dispatcher lock",
    ),
    Gate(
        "BENCH_check.json",
        "schedules_per_sec",
        tolerance=0.75,
        why="the schedule-exploration checker got dramatically slower",
    ),
    Gate(
        "BENCH_fig5.json",
        "unbound_creates_per_ms",
        tolerance=0.75,
        why="magazine-fed unbound thread creation got dramatically slower",
    ),
    Gate(
        "BENCH_stat.json",
        "disabled_probe_ns",
        ceiling=2.0,
        tolerance=0.5,
        why="a disabled stat probe is no longer approximately free",
    ),
    Gate(
        "BENCH_stat.json",
        "enabled_count_ns",
        ceiling=10.0,
        tolerance=0.0,
        why="enabled stat counters exceed the 10 ns/op overhead budget",
    ),
    Gate(
        "BENCH_stat.json",
        "enabled_hist_ns",
        ceiling=10.0,
        tolerance=0.0,
        why="enabled stat histograms exceed the 10 ns/op overhead budget",
    ),
    Gate(
        "BENCH_chan.json",
        "pipeline_msgs_per_ms",
        tolerance=0.75,
        why="the channel actor pipeline got dramatically slower",
    ),
    Gate(
        "BENCH_chan.json",
        "wake_chain_p99_us",
        ceiling=5000.0,
        tolerance=0.0,
        why="the parked-receiver wake chain grew a pathological tail",
    ),
    Gate(
        "BENCH_io.json",
        "scale_thpt_per_lwp",
        tolerance=0.75,
        why="per-LWP echo throughput collapsed in the connection-scaling matrix",
    ),
    Gate(
        "BENCH_io.json",
        "scale_p99_wake_us",
        ceiling=20000.0,
        tolerance=0.0,
        why="the sharded poller's wake latency grew a pathological tail",
    ),
    Gate(
        "BENCH_preempt.json",
        "p99_dispatch_us",
        ceiling=20000.0,
        tolerance=0.0,
        why="timer preemption no longer bounds dispatch latency to the tick",
    ),
    Gate(
        "BENCH_preempt.json",
        "starved_dispatches",
        ceiling=0.0,
        tolerance=0.0,
        why="a probe starved behind a CPU hog despite the preemption tick",
    ),
]


def metric_from(path, metric):
    try:
        with open(path) as f:
            notes = " ".join(json.load(f)["notes"])
    except OSError as e:
        sys.exit(f"FAIL {path}: {e}")
    m = re.search(rf"{re.escape(metric)}=([0-9.]+)", notes)
    if not m:
        sys.exit(f"FAIL {path}: no {metric} in notes: {notes!r}")
    return float(m.group(1))


def run_gate(root, gate):
    """Returns None on pass, or a dict describing the violation."""
    committed = f"{root}/{gate.bench}"
    fresh = committed.replace(".json", ".fresh.json")
    value = metric_from(fresh, gate.metric)
    if gate.ceiling is not None:
        need = gate.ceiling * (1.0 + gate.tolerance)
        ok = value <= need
        verdict = "PASS" if ok else "FAIL"
        print(
            f"{verdict} {gate.bench} {gate.metric}: fresh={value:.2f} "
            f"ceiling={gate.ceiling:.2f} required<={need:.2f}"
        )
        if ok:
            return None
        direction = "ceiling"
    else:
        baseline = gate.floor if gate.floor is not None else metric_from(committed, gate.metric)
        need = baseline * (1.0 - gate.tolerance)
        kind = "floor" if gate.floor is not None else "committed"
        verdict = "PASS" if value >= need else "FAIL"
        print(
            f"{verdict} {gate.bench} {gate.metric}: fresh={value:.2f} "
            f"{kind}={baseline:.2f} required>={need:.2f}"
        )
        if value >= need:
            return None
        direction = "floor"
    return {
        "bench": gate.bench,
        "metric": gate.metric,
        "value": value,
        "required": need,
        "direction": direction,
        "why": gate.why,
    }


def main():
    if len(sys.argv) > 2:
        sys.exit(__doc__.strip())
    root = sys.argv[1] if len(sys.argv) == 2 else "."
    failures = [f for g in GATES if (f := run_gate(root, g)) is not None]
    for f in failures:
        arrow = "rose to" if f["direction"] == "ceiling" else "fell to"
        bound = "<=" if f["direction"] == "ceiling" else ">="
        print(
            f"REGRESSION: {f['bench']}: {f['metric']} {arrow} {f['value']:.2f} "
            f"(required {bound} {f['required']:.2f}) — {f['why']}"
        )
        # One machine-readable line per violation, for log scrapers.
        print(f"GATE-FAIL {json.dumps(f, sort_keys=True)}")
    if failures:
        sys.exit(f"bench gate: {len(failures)} of {len(GATES)} gates violated")
    print(f"bench gate OK ({len(GATES)} gates)")


if __name__ == "__main__":
    main()
