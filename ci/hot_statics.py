#!/usr/bin/env python3
"""Lint: no process-wide statistics word in the hot-path crates.

Every `static NAME: ...Atomic...` in `crates/{core,sync,chan}/src` is a
cache line that any LWP may write. A statistic kept in one is written by
every LWP that counts it, which puts a shared line on the very paths the
library keeps in user space (dispatch, create, channel send/receive). The
always-on statistics are counted per LWP instead (`sunmt_trace::gauge`).

This script lists every such static and fails on any name that is not in
the allowlist below. Each allowlist entry says why the word is not a
statistic. To add one, state the same: what the word decides, and why
its writes are rare.

Run from the root of a checkout: `python3 ci/hot_statics.py`.
"""

import pathlib
import re
import sys

CRATES = ("core", "sync", "chan")

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
}

STATIC = re.compile(r"\bstatic\s+(?:mut\s+)?([A-Za-z_][A-Za-z_0-9]*)\s*:[^=;]*\bAtomic")


def main() -> int:
    root = pathlib.Path(__file__).resolve().parent.parent
    found = []
    for crate in CRATES:
        for path in sorted((root / "crates" / crate / "src").rglob("*.rs")):
            rel = path.relative_to(root).as_posix()
            for lineno, line in enumerate(path.read_text().splitlines(), 1):
                if line.lstrip().startswith("//"):
                    continue
                for m in STATIC.finditer(line):
                    found.append((rel, lineno, m.group(1)))
    bad = [(f, n, s) for f, n, s in found if (f, s) not in ALLOWED]
    for f, n, s in found:
        verdict = "FAIL" if (f, n, s) in bad else "ok  "
        print(f"{verdict} {f}:{n} static {s}")
    stale = sorted(set(ALLOWED) - {(f, s) for f, _, s in found})
    for f, s in stale:
        print(f"note allowlist entry {f} {s} matches no static")
    if bad:
        print(
            f"{len(bad)} process-wide atomic static(s) outside the allowlist; "
            "count statistics per LWP with sunmt_trace::gauge, or add an "
            "allowlist entry that says why the word is not a statistic",
            file=sys.stderr,
        )
        return 1
    print(f"{len(found)} atomic static(s), all allowlisted")
    return 0


if __name__ == "__main__":
    sys.exit(main())
