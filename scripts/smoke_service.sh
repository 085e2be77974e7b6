#!/usr/bin/env bash
# Service smoke test, end to end through the real binary:
#
#  1. two quick-scale jobs submitted concurrently to `seqpoint serve`
#     (subprocess worker placement) must return selections byte-identical
#     to offline `seqpoint stream` runs of the same specs;
#  2. SIGTERM mid-job must drain gracefully — the in-flight job's state
#     is checkpointed, the process exits 0 — and a restarted server must
#     resume the job from that checkpoint and complete it with the exact
#     offline selection.
#
# Shared by scripts/verify.sh and the CI `service-smoke` job so the two
# cannot drift apart.
#
# Usage: scripts/smoke_service.sh [path/to/seqpoint]
set -euo pipefail

BIN="${1:-target/release/seqpoint}"
SMOKE_DIR="$(mktemp -d)"
SERVE_PID=""
cleanup() {
  status=$?
  if [[ $status -ne 0 && -n "${SMOKE_ARTIFACT_DIR:-}" ]]; then
    mkdir -p "$SMOKE_ARTIFACT_DIR"
    cp "$SMOKE_DIR"/*.log "$SMOKE_ARTIFACT_DIR"/ 2>/dev/null || true
  fi
  if [[ -n "$SERVE_PID" ]] && kill -0 "$SERVE_PID" 2>/dev/null; then
    kill -9 "$SERVE_PID" 2>/dev/null || true
  fi
  rm -rf "$SMOKE_DIR"
}
trap cleanup EXIT

SOCK="$SMOKE_DIR/sock"
STATE="$SMOKE_DIR/state"
SERVE_ARGS=(serve --socket "$SOCK" --state-dir "$STATE" --jobs 2
            --placement subprocess --workers 2
            --metrics-addr 127.0.0.1:0)

wait_ready() {
  for _ in $(seq 1 200); do
    if "$BIN" submit --socket "$SOCK" --ping >/dev/null 2>&1; then
      return 0
    fi
    sleep 0.05
  done
  echo "smoke_service: server never became ready" >&2
  return 1
}

SPEC_A=(--model gnmt --dataset iwslt15 --samples 6000 --batch 16
        --shards 3 --round 32 --window 128 --quant 8 --seed 20)
SPEC_B=(--model gnmt --dataset iwslt15 --samples 5000 --batch 16
        --shards 3 --round 32 --window 128 --quant 8 --seed 21)
# A paced job that never early-stops (~16 rounds at 150 ms each), so the
# SIGTERM below is guaranteed to land mid-run.
SPEC_LONG=(--model gnmt --dataset iwslt15 --samples 4000 --batch 16
           --shards 3 --round 16 --window 99999999 --quant 8 --seed 22)

# Offline references.
"$BIN" stream "${SPEC_A[@]}"    > "$SMOKE_DIR/ref_a.txt"
"$BIN" stream "${SPEC_B[@]}"    > "$SMOKE_DIR/ref_b.txt"
"$BIN" stream "${SPEC_LONG[@]}" > "$SMOKE_DIR/ref_long.txt"

# --- Part 1: concurrent served jobs match the offline runs exactly.
"$BIN" "${SERVE_ARGS[@]}" 2>"$SMOKE_DIR/serve1.log" &
SERVE_PID=$!
wait_ready
"$BIN" submit --socket "$SOCK" "${SPEC_A[@]}" --job smoke-a --detach >/dev/null
"$BIN" submit --socket "$SOCK" "${SPEC_B[@]}" --job smoke-b --detach >/dev/null
"$BIN" submit --socket "$SOCK" --result smoke-a > "$SMOKE_DIR/served_a.txt"
"$BIN" submit --socket "$SOCK" --result smoke-b > "$SMOKE_DIR/served_b.txt"
diff "$SMOKE_DIR/ref_a.txt" "$SMOKE_DIR/served_a.txt"
diff "$SMOKE_DIR/ref_b.txt" "$SMOKE_DIR/served_b.txt"
echo "smoke_service: two concurrent served jobs match offline stream output"

# --- Metrics: scrape the plaintext endpoint (ephemeral port published
# in STATE/serve.metrics) and assert the counters the dashboards rely
# on are exported. The snapshot lands next to the daemon logs so a
# failing run uploads it as a CI artifact.
METRICS_ADDR="$(cat "$STATE/serve.metrics")"
exec 3<>"/dev/tcp/${METRICS_ADDR%:*}/${METRICS_ADDR##*:}"
printf 'GET / HTTP/1.0\r\n\r\n' >&3
cat <&3 > "$SMOKE_DIR/metrics.snapshot.log"
exec 3<&- 3>&-
grep -q '^HTTP/1.0 200 OK' "$SMOKE_DIR/metrics.snapshot.log" \
  || { echo "smoke_service: metrics scrape did not return 200" >&2; exit 1; }
for name in seqpoint_uptime_seconds seqpoint_connections_opened_total \
            seqpoint_client_bytes_in_total seqpoint_client_bytes_out_total \
            seqpoint_client_jobs_submitted_total seqpoint_jobs_completed_total \
            seqpoint_rounds_total seqpoint_stage_items_in_total \
            seqpoint_queue_dequeued_total seqpoint_cache_misses_total; do
  grep -q "^$name" "$SMOKE_DIR/metrics.snapshot.log" \
    || { echo "smoke_service: scrape is missing $name" >&2; exit 1; }
done
grep -q '^seqpoint_jobs_completed_total 2$' "$SMOKE_DIR/metrics.snapshot.log" \
  || { echo "smoke_service: expected 2 completed jobs in the scrape" >&2; exit 1; }
echo "smoke_service: metrics endpoint serves the expected counters"

# --- Part 2: SIGTERM drain checkpoints the in-flight job ...
"$BIN" submit --socket "$SOCK" "${SPEC_LONG[@]}" --throttle-ms 150 \
  --job smoke-long --detach >/dev/null
sleep 1
"$BIN" submit --socket "$SOCK" --status smoke-long | grep -q ",running," \
  || { echo "smoke_service: long job is not running before SIGTERM" >&2; exit 1; }
kill -TERM "$SERVE_PID"
wait "$SERVE_PID"
SERVE_PID=""
test -s "$STATE/smoke-long.ckpt.json" \
  || { echo "smoke_service: drain did not checkpoint the in-flight job" >&2; exit 1; }
test ! -e "$STATE/smoke-long.result.txt" \
  || { echo "smoke_service: job finished before SIGTERM; drain untested" >&2; exit 1; }
echo "smoke_service: SIGTERM drained with the in-flight job checkpointed"

# --- ... and a restart resumes it to the exact offline selection.
"$BIN" "${SERVE_ARGS[@]}" 2>"$SMOKE_DIR/serve2.log" &
SERVE_PID=$!
wait_ready
"$BIN" submit --socket "$SOCK" --result smoke-long > "$SMOKE_DIR/served_long.txt"
diff "$SMOKE_DIR/ref_long.txt" "$SMOKE_DIR/served_long.txt"
"$BIN" submit --socket "$SOCK" --shutdown >/dev/null
wait "$SERVE_PID"
SERVE_PID=""
echo "smoke_service: drained job resumed after restart and matches offline stream output"
