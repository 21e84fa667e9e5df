#!/usr/bin/env bash
# Build the end-to-end benchmark and run it. Run from anywhere; see
# bench/README.md.
#
#   bench/run.sh --workload W --seed N --seconds S --trace 0|1
#       one run of one workload; the last line of stdout is the result
#   bench/run.sh [--seed N] [--seconds S] [--runs K]
#       every workload: K untraced runs and one traced run, each in its own
#       process; prints every metric and writes bench/results/set-*.json
#   bench/run.sh --smoke [--seed N]
#       every workload at n <= 4,096, untraced and traced; writes no files
#   bench/run.sh compare <a.json> <b.json>
#       gate result set b against result set a; non-zero on a regression
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
# The driver names the target directory; by hand, share the repo's.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/../target}"
# Keep freed memory in the process (glibc; other allocators ignore these).
# By default glibc hands large blocks back to the kernel on every free, and
# whether the next statement pays the page faults again flips with the exact
# sequence of sizes: whole cycles alternated between 75 and 100 ms on the
# same statement. See "Sandbox caveats" in bench/README.md.
export MALLOC_MMAP_THRESHOLD_=33554432
export MALLOC_TRIM_THRESHOLD_=4294967296
export MALLOC_TOP_PAD_=67108864
# Build output goes to stderr so that stdout ends with the result line.
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" 1>&2
exec "$CARGO_TARGET_DIR/release/tempagg-e2e" "$@"
