#!/usr/bin/env bash
# Build the figure binaries and the benchmark from source, then run the
# benchmark with the given arguments, from the repository root:
#
#   bash crates/bench/src/bin/benchmark/run.sh --workload serve_hot --seed 1 --seconds 12 --trace 0
#
# Build output goes to stderr; the benchmark's last stdout line is its
# verdict. `CARGO_TARGET_DIR` (default `target`) holds both builds, so the
# benchmark finds the figure binaries next to itself.
set -euo pipefail
cd "$(dirname "$0")/../../../../.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet -p trainbox-bench --bins >&2
cargo build --release --offline --quiet --manifest-path crates/bench/src/bin/benchmark/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/benchmark" "$@"
