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
A missing or unreadable artifact, or a metric absent from its notes, is
a FAIL of the gates that read it, not an abort: every other gate still
runs and prints its line. Every gated number is a wall-clock measurement
(or a structural count) of the real library.

The CI lint job also copies each committed `BENCH_*.json` to its
`.fresh.json` name and runs this script, so a gate naming a metric its
committed artifact does not contain fails before any bench runs.

Gated metrics:

* `BENCH_io.json` / `lwp_ratio` — bound LWPs per M:N LWP in the
  window-server workload (the paper's "fewer kernel resources" claim).
  Structural count, deterministic, gated exactly against the committed
  value.
* `BENCH_check.json` / `schedules_per_sec` — aggregate throughput of
  the model-checking sweep. Wall-clock on a shared runner, so it gets a
  wide tolerance: fresh must stay within 4x of the committed rate.
* `BENCH_fig5.json` / `unbound_creates_per_ms` — steady-state unbound
  thread creation rate, the magazine-fed Figure 5 hot path. Wall-clock
  on a shared runner, so like the checker it gets the wide 4x band.
* `BENCH_stat.json` / `disabled_probe_ns` — cost of a *disabled*
  probe pair (a `probe!` count + a histogram `record`), net of the
  baseline loop. Ceiling-gated near zero: with both bits of the probe
  switch word off, a probe is one relaxed load and a branch, and it
  must stay that way.
* `BENCH_stat.json` / `trace_disabled_probe_ns` — cost of one
  *disabled* `probe!`, net of the same baseline loop. Same ceiling and
  tolerance as the pair: every probe compiled into the hot paths must
  stay approximately free while observability is off.
* `BENCH_stat.json` / `enabled_count_ns`, `enabled_hist_ns` — cost of
  a probe with only the counting bit on (a per-LWP tag counter) and of
  a histogram record. Ceiling-gated at 10 ns/op: if enabling
  statistics stops being harmless the whole always-compiled-in design
  is void.
* `BENCH_stat.json` / `trace_enabled_probe_ns` — cost of one `probe!`
  with tracing on: the per-LWP counter, a cycle-counter stamp and a
  ring-slot write. Ceiling-gated at 100 ns/op with 50 % slack: a probe
  that goes back to reading the clock through a system call, or to a
  process-wide counter line, costs several times that.
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
* `BENCH_preempt.json` / `real_p99_us` — p99 wake-to-run latency of
  a higher-priority probe onto LWPs occupied by CPU hogs, in the real
  library under `SUNMT_PREEMPT=timer` (10 ms tick). Ceiling-gated at
  two tick periods: a tick that stops firing, a broken decay or a
  preemption check that stops switching hogs out leaves the probe
  waiting for a hog that never yields, far above it.
* `BENCH_preempt.json` / `real_preempts` — hogs switched out at a tick
  in the same run. Floor-gated at 1: the latency above means nothing
  unless the preemption path actually ran.

`BENCH_mutex.json` (ABL-MUTEX, the sleep/spin/adaptive contention
matrix plus the uncontended fast-path table) is regenerated and
uploaded but carries no gate; its `sleep_fairness_spread` note is
printed for reading, not compared.

Each violated gate also prints one machine-readable `GATE-FAIL {json}`
line (bench, metric, value, required, direction, why) for tooling that
scrapes the CI log; for an unreadable artifact `value` and `required`
are null and `why` names the file and the error.

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
        "trace_disabled_probe_ns",
        ceiling=2.0,
        tolerance=0.5,
        why="a disabled trace probe is no longer approximately free",
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
        "BENCH_stat.json",
        "trace_enabled_probe_ns",
        ceiling=100.0,
        tolerance=0.5,
        why="an enabled trace probe is no longer cheap enough to leave on",
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
        "real_p99_us",
        ceiling=20000.0,
        tolerance=0.0,
        why="timer preemption no longer bounds wake-to-run latency to two ticks",
    ),
    Gate(
        "BENCH_preempt.json",
        "real_preempts",
        floor=1.0,
        tolerance=0.0,
        why="the preemption tick never switched a CPU hog out",
    ),
]


class Unreadable(Exception):
    """An artifact is missing or broken, or lacks the gated metric."""


def metric_from(path, metric):
    try:
        with open(path) as f:
            notes = " ".join(json.load(f)["notes"])
    except (OSError, ValueError, KeyError, TypeError) as e:
        raise Unreadable(f"{path}: {e!r}") from e
    m = re.search(rf"{re.escape(metric)}=([0-9.]+)", notes)
    if not m:
        raise Unreadable(f"{path}: no {metric} in notes")
    return float(m.group(1))


def run_gate(root, gate):
    """Returns None on pass, or a dict describing the violation."""
    committed = f"{root}/{gate.bench}"
    fresh = committed.replace(".json", ".fresh.json")
    direction = "ceiling" if gate.ceiling is not None else "floor"
    try:
        value = metric_from(fresh, gate.metric)
        if gate.ceiling is not None:
            baseline, kind = gate.ceiling, "ceiling"
        elif gate.floor is not None:
            baseline, kind = gate.floor, "floor"
        else:
            baseline, kind = metric_from(committed, gate.metric), "committed"
    except Unreadable as e:
        print(f"FAIL {gate.bench} {gate.metric}: {e}")
        return {
            "bench": gate.bench,
            "metric": gate.metric,
            "value": None,
            "required": None,
            "direction": direction,
            "why": str(e),
        }
    if direction == "ceiling":
        need = baseline * (1.0 + gate.tolerance)
        ok = value <= need
    else:
        need = baseline * (1.0 - gate.tolerance)
        ok = value >= need
    bound = "<=" if direction == "ceiling" else ">="
    print(
        f"{'PASS' if ok else 'FAIL'} {gate.bench} {gate.metric}: fresh={value:.2f} "
        f"{kind}={baseline:.2f} required{bound}{need:.2f}"
    )
    if ok:
        return None
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
        if f["value"] is None:
            print(f"REGRESSION: {f['bench']}: {f['metric']} unreadable — {f['why']}")
        else:
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
