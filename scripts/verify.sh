#!/usr/bin/env bash
# Full verification: the tier-1 command plus workspace-wide tests,
# clippy (warnings are errors), and a warning-free doc build.
# CI (.github/workflows/ci.yml) runs the same phases, split into jobs so
# a clippy regression cannot mask a test failure.
set -euo pipefail
cd "$(dirname "$0")/.."

CURRENT_STEP="init"
step() {
  CURRENT_STEP="$1"
  echo
  echo "==> [${CURRENT_STEP}] $2"
}
trap 'echo "verify: FAILED at step [${CURRENT_STEP}]" >&2' ERR

step build "release build (tier-1)"
cargo build --release

# Covers tier-1's `cargo test -q` as a strict subset (the root package is
# a workspace member), so the root suite isn't run twice.
step test "workspace tests"
cargo test -q --workspace

step smoke "checkpoint/resume smoke (seqpoint stream)"
bash scripts/smoke_stream.sh target/release/seqpoint

step service-smoke "service smoke (serve/submit/worker, SIGTERM drain + resume)"
bash scripts/smoke_service.sh target/release/seqpoint

step tcp-smoke "TCP transport smoke (token auth, served-vs-offline diff, drain/resume over TCP)"
bash scripts/smoke_tcp.sh target/release/seqpoint

step fleet-smoke "fleet smoke (external worker pool, single-flight cache, fairness, SIGKILL survival)"
bash scripts/smoke_fleet.sh target/release/seqpoint

step bench-gate "perf capture + regression gate vs committed BENCH_stream.json"
BENCH_FRESH="$(mktemp)"
bash scripts/bench_stream.sh target/release/seqpoint "$BENCH_FRESH"
bash scripts/bench_check.sh "$BENCH_FRESH" BENCH_stream.json
rm -f "$BENCH_FRESH"

step fmt "rustfmt (check)"
cargo fmt --all --check

step lint "seqpoint-lint (lock order, panic paths, protocol drift)"
cargo run --release -q -p seqpoint_analysis --bin seqpoint-lint

step clippy "clippy (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

step docs "docs (deny warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

step examples "example targets compile"
cargo build --workspace --examples --quiet

echo
echo "verify: OK"
