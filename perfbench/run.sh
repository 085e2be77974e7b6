#!/usr/bin/env bash
# Build the `seqpoint` binary and the `perfbench` binary from source, then
# run one benchmark workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload stream-gnmt --seed 1 --seconds 10 --trace 0
#
# Build output goes to $CARGO_TARGET_DIR (default `.bench_build`); the
# benchmark also keeps its run files (daemon state, sockets, span
# dumps) under it. Cargo's progress goes to stderr so the last stdout
# line stays the JSON result.
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"

cargo build --release --offline --quiet --bin seqpoint >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2

exec "$CARGO_TARGET_DIR/release/perfbench" \
  --seqpoint "$CARGO_TARGET_DIR/release/seqpoint" \
  --work-dir "$CARGO_TARGET_DIR/perfbench" \
  "$@"
