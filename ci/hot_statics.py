#!/usr/bin/env python3
"""Lint: no process-wide statistics word or lock in the hot-path crates.

Every `static NAME: ...Atomic...` in `crates/{core,sync,chan,lwp}/src` is a
cache line that any LWP may write. A statistic kept in one is written by
every LWP that counts it, which puts a shared line on the very paths the
library keeps in user space (dispatch, create, channel send/receive). The
always-on statistics are counted per LWP instead (`sunmt_trace::gauge`).

A `static NAME: ...Mutex<...` or `...RwLock<...` is the same line, written
by every lock and unlock. Such a static stays only where no hot path
takes it.

This script lists every such static and fails on any name that is not in
its allowlist below. An atomic's entry says why the word is not a
statistic: what it decides, and why its writes are rare. A lock's entry
says which paths take the lock.

Run from the root of a checkout: `python3 ci/hot_statics.py`.
"""

import pathlib
import re
import sys

CRATES = ("core", "sync", "chan", "lwp")

# (file relative to the repo root, static name) -> why it is not a statistic.
ALLOWED = {
    ("crates/core/src/timers.rs", "ACCOUNTING"): (
        "a switch, not a count: set once, when a thread first asks for CPU "
        "accounting, and read by every dispatch"
    ),
    ("crates/sync/src/rwlock.rs", "NEXT"): (
        "hands out reader-slot indices: read-modify-written once per kernel "
        "thread, on its first rwlock use off the threads library's pool"
    ),
    ("crates/lwp/src/lib.rs", "RUN_FLAGS"): (
        "one is-on-a-processor cell per LWP slot, read by adaptive spinners: "
        "written only by that LWP's parker around a kernel park, and at the "
        "LWP's exit"
    ),
    ("crates/lwp/src/lib.rs", "PREEMPT_FLAGS"): (
        "one pending-preemption cell per LWP slot: written only by a "
        "preemption tick, by a cross-LWP priority change, by the take of a "
        "raised flag (dispatch loads before it swaps), and when a slot is "
        "handed out or its LWP exits"
    ),
    ("crates/lwp/src/lib.rs", "BOOST_PRI"): (
        "one inherited-priority cell per LWP slot: written only by a PI "
        "boost and by the clear of a non-zero boost (dispatch loads before "
        "it swaps), and when a slot is handed out or its LWP exits"
    ),
    ("crates/lwp/src/lib.rs", "NEXT_SLOT"): (
        "hands out LWP slot indices: read-modify-written once per LWP, when "
        "its identity is made"
    ),
}

# (file relative to the repo root, static name) -> which paths take the lock.
ALLOWED_LOCKS = {
    ("crates/core/src/tls.rs", "LAYOUT"): (
        "taken by `Unshared::register` and by the first create only"
    ),
}

NAME = r"\bstatic\s+(?:mut\s+)?([A-Za-z_][A-Za-z_0-9]*)\s*:[^=;]*"
KINDS = (
    (
        "atomic",
        re.compile(NAME + r"\bAtomic"),
        ALLOWED,
        "count statistics per LWP with sunmt_trace::gauge, or add an "
        "allowlist entry that says why the word is not a statistic",
    ),
    (
        "lock",
        re.compile(NAME + r"\b(?:Mutex|RwLock)<"),
        ALLOWED_LOCKS,
        "keep the state per LWP or per object, or add an allowlist entry "
        "that says which paths take the lock",
    ),
)


def scan(root, pattern):
    found = []
    for crate in CRATES:
        for path in sorted((root / "crates" / crate / "src").rglob("*.rs")):
            rel = path.relative_to(root).as_posix()
            for lineno, line in enumerate(path.read_text().splitlines(), 1):
                if line.lstrip().startswith("//"):
                    continue
                for m in pattern.finditer(line):
                    found.append((rel, lineno, m.group(1)))
    return found


def main() -> int:
    root = pathlib.Path(__file__).resolve().parent.parent
    failed = False
    for kind, pattern, allowed, advice in KINDS:
        found = scan(root, pattern)
        bad = [(f, n, s) for f, n, s in found if (f, s) not in allowed]
        for f, n, s in found:
            verdict = "FAIL" if (f, n, s) in bad else "ok  "
            print(f"{verdict} {f}:{n} {kind} static {s}")
        stale = sorted(set(allowed) - {(f, s) for f, _, s in found})
        for f, s in stale:
            print(f"note {kind} allowlist entry {f} {s} matches no static")
        if bad:
            print(
                f"{len(bad)} process-wide {kind} static(s) outside the "
                f"allowlist; {advice}",
                file=sys.stderr,
            )
            failed = True
        else:
            print(f"{len(found)} {kind} static(s), all allowlisted")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
