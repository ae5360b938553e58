#!/usr/bin/env bash
# Builds the benchmark from source and runs it.
#
#   benchmark/run.sh [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--traced]
#   benchmark/run.sh --selfcheck [--runs N]
#
# With --workload the last line of standard output is the result object of
# the benchmark contract; without it all five workloads run in turn. Run it
# from the root of a checkout. The build goes to $CARGO_TARGET_DIR, or to the
# repo's own target/ when that is not set.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$root/target}"
export BENCH_OUT_DIR="${BENCH_OUT_DIR:-$here/out}"

# Build output goes to standard error: standard output is the result.
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" 1>&2

if [[ "${1:-}" == "--selfcheck" ]]; then
    shift
    exec python3 "$here/compare" --selfcheck "$@"
fi
exec "$CARGO_TARGET_DIR/release/sunmt-benchmark" "$@"
