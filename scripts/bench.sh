#!/usr/bin/env bash
# Runs the solver/driver benchmark suite with -benchmem and records the
# results as JSON at the repo root (benchmark name → ns/op, B/op,
# allocs/op), extending the perf trajectory (BENCH_PR3.json →
# BENCH_PR4.json → BENCH_PR8.json → BENCH_PR9.json) that future changes
# are compared against.
#
# After recording, the snapshot is diffed against the previous trajectory
# point (cmd/benchjson -diff): per-benchmark deltas beyond 10% ns/op are
# reported as an ADVISORY note — absolute ns/op against a checked-in
# snapshot moves with the machine, so drift alone must not fail the run.
# The hard failure is the gate (cmd/benchjson -gate): every
# ScalingLinear/…/packed point must stay within 1.25x of its
# BENCH_PR4.json ns/op.
# The gated points were recorded 2-4x *under* that baseline, so the gate
# has real headroom on any reasonable machine and firing means the
# word-packed solver's headline wins actually eroded. A second hard
# failure is the same-snapshot ratio (cmd/benchjson -ratio): disk-warm
# whole-program analysis must run at no more than 0.5x the cold run —
# the persistent cache's reason to exist, asserted within one machine's
# measurements so it cannot drift with hardware.
#
# A warm-restart phase then runs loadgen's embedded redeploy scenario
# (cold traffic, in-memory memo reset, warm traffic that must answer from
# the persistent cache) and merges its p50/p99 into the snapshot as
# ServeWarmRestart pseudo-rows. Finally a service-layer phase starts
# `arrayflow serve` on an ephemeral port, replays concurrent mixed
# analyze/vet/batch traffic with cmd/loadgen, and records p50/p99 latency
# and throughput into BENCH_PR6.json — diffed against the previous
# BENCH_PR6.json under loadgen's -maxregress gate. docs/OPERATIONS.md
# explains how to read the diff.
#
# Usage: scripts/bench.sh [output.json]
#
# Environment:
#   BENCH_PATTERN      benchmark regexp (default: the solver suite plus
#                      both BenchmarkVet variants and the three
#                      BenchmarkRender writers, recorded ungated)
#   BENCH_TIME         go test -benchtime value (default 1s; CI may lower it)
#   BENCH_BASELINE     baseline snapshot to diff against, advisory only
#                      (default BENCH_PR4.json; set empty to skip the diff)
#   BENCH_GATE         hard gate spec BASELINE:PATTERN:FACTOR (default
#                      holds packed ScalingLinear to 1.25x BENCH_PR4.json;
#                      set empty to skip the gate)
#   BENCH_RATIO        same-snapshot ratio spec NUM:DEN:FACTOR (default
#                      holds disk-warm analysis to 0.5x cold; set empty
#                      to skip)
#   SWEEP_BENCH        set to 0 to skip the symbolic-bound sweep phase
#   SWEEP_OUT          sweep snapshot path (default BENCH_PR10.json)
#   SWEEP_FLOOR        minimum provably-classified percentage (default 78)
#   SERVE_BENCH        set to 0 to skip the service load phase
#   SERVE_OUT          service snapshot path (default BENCH_PR6.json)
#   SERVE_CONCURRENCY  loadgen workers (default 1000)
#   SERVE_DURATION     loadgen duration (default 10s)
#   SERVE_MAXREGRESS   loadgen regression factor (default 2.0)
#   RESTART_BENCH      set to 0 to skip the warm-restart phase
#   RESTART_DURATION   per-phase duration of the warm-restart scenario
#                      (default 5s)
#   RESTART_CONCURRENCY  warm-restart workers (default 64)
set -euo pipefail

cd "$(dirname "$0")/.."

OUT="${1:-BENCH_PR9.json}"
PATTERN="${BENCH_PATTERN:-BenchmarkTable1InitPass|BenchmarkTable1FixedPoint|BenchmarkTable1FusedSolve|BenchmarkScalingLinear|BenchmarkDriverMemoization|BenchmarkFrontEnd|BenchmarkAnalyzeBatch|BenchmarkWarmStart|BenchmarkDiff|BenchmarkVet|BenchmarkRender}"
TIME="${BENCH_TIME:-1s}"
BASELINE="${BENCH_BASELINE-BENCH_PR4.json}"
GATE="${BENCH_GATE-BENCH_PR4.json:BenchmarkScalingLinear/.*/packed:1.25}"
RATIO="${BENCH_RATIO-BenchmarkWarmStart/disk-warm:BenchmarkWarmStart/cold:0.5}"

TMP="$(mktemp)"
RESTART_DIR="$(mktemp -d)"
trap 'rm -f "$TMP"; rm -rf "$RESTART_DIR"' EXIT

go test -run '^$' -bench "$PATTERN" -benchmem -benchtime "$TIME" . | tee "$TMP"
go run ./cmd/benchjson -o "$OUT" < "$TMP"
echo "wrote $OUT"

if [ -n "$BASELINE" ] && [ -f "$BASELINE" ]; then
  # Advisory: the per-benchmark delta report is worth reading, but absolute
  # ns/op drifts with the machine, so a >10% delta is a note, not a failure.
  go run ./cmd/benchjson -diff "$BASELINE" "$OUT" > /dev/null ||
    echo "note: ns/op drifted beyond 10% of $BASELINE on benchmarks above (advisory; the hard limit is the gate)"
fi
if [ -n "$GATE" ] && [ -f "${GATE%%:*}" ]; then
  # Hard gate: fails the script (set -e) if any gated point exceeds its
  # ceiling or went missing.
  go run ./cmd/benchjson -gate "$GATE" "$OUT" > /dev/null
fi
if [ -n "$RATIO" ]; then
  # Hard gate within this snapshot: disk-warm analysis must be at most
  # half the cold time, or the persistent cache is not earning its keep.
  go run ./cmd/benchjson -ratio "$RATIO" "$OUT" > /dev/null
fi

# ---- symbolic-bound sweep ---------------------------------------------------
# Self-analysis precision, recorded as a trajectory point: cmd/corpus lowers
# and certifies every loop of this repository, and the verdict counts land
# in BENCH_PR10.json as CorpusVerdicts pseudo-rows. Two hard gates: the
# provably-classified fraction (parallel + racy over all verdict-bearing
# units) must stay at or above its floor — the symbolic-bounds analysis is
# what holds it there — and differential execution must report zero
# mismatches (a mismatch means a certificate lied about a real program).

if [ "${SWEEP_BENCH:-1}" != "0" ]; then
  SWEEP_OUT="${SWEEP_OUT:-BENCH_PR10.json}"
  SWEEP_FLOOR="${SWEEP_FLOOR:-78}"
  go run ./cmd/corpus -root ./... -o "$RESTART_DIR/corpus.json"
  go run ./cmd/benchjson -corpus "$RESTART_DIR/corpus.json" \
    -floor "CorpusVerdicts/provablyClassified:$SWEEP_FLOOR" \
    -ceiling "CorpusDifferential/mismatch:0" \
    -o "$SWEEP_OUT" < /dev/null
  echo "wrote $SWEEP_OUT"
fi

# ---- warm-restart phase ----------------------------------------------------
# The service-level counterpart of BenchmarkWarmStart: loadgen runs an
# embedded server with a persistent cache, replays a cold phase, drops the
# in-memory memo exactly as a redeploy would, then replays a warm phase
# that must answer from disk (the run fails on a zero disk-hit delta).
# Both phases' p50/p99 land in $OUT as ServeWarmRestart pseudo-rows.

if [ "${RESTART_BENCH:-1}" != "0" ]; then
  RESTART_DURATION="${RESTART_DURATION:-5s}"
  RESTART_CONCURRENCY="${RESTART_CONCURRENCY:-64}"
  go run ./cmd/loadgen -cache-dir "$RESTART_DIR/cache" -concurrency "$RESTART_CONCURRENCY" \
    -duration "$RESTART_DURATION" -bench-rows "$OUT"
  echo "merged warm-restart rows into $OUT"
fi

# ---- service load phase ----------------------------------------------------

if [ "${SERVE_BENCH:-1}" = "0" ]; then
  exit 0
fi

SERVE_OUT="${SERVE_OUT:-BENCH_PR6.json}"
SERVE_CONCURRENCY="${SERVE_CONCURRENCY:-1000}"
SERVE_DURATION="${SERVE_DURATION:-10s}"
SERVE_MAXREGRESS="${SERVE_MAXREGRESS:-2.0}"

WORK="$(mktemp -d)"
SERVE_PID=""
cleanup() {
  rm -f "$TMP"
  rm -rf "$RESTART_DIR"
  if [ -n "$SERVE_PID" ] && kill -0 "$SERVE_PID" 2>/dev/null; then
    kill -TERM "$SERVE_PID" 2>/dev/null || true
    wait "$SERVE_PID" 2>/dev/null || true
  fi
  rm -rf "$WORK"
}
trap cleanup EXIT

go build -o "$WORK/arrayflow" ./cmd/arrayflow
go build -o "$WORK/loadgen" ./cmd/loadgen

# Start the daemon on an ephemeral port and scrape the resolved address
# from its startup line on stderr.
"$WORK/arrayflow" serve -addr 127.0.0.1:0 2> "$WORK/serve.log" &
SERVE_PID=$!
URL=""
for _ in $(seq 1 100); do
  URL="$(sed -n 's|.*listening on \(http://[0-9.:]*\).*|\1|p' "$WORK/serve.log" | head -1)"
  [ -n "$URL" ] && break
  kill -0 "$SERVE_PID" 2>/dev/null || { cat "$WORK/serve.log"; echo "arrayflow serve died"; exit 1; }
  sleep 0.1
done
[ -n "$URL" ] || { echo "could not scrape serve address"; exit 1; }

# loadgen writes -out before it reads -baseline, so preserve the previous
# snapshot for the diff.
LOADGEN_ARGS=(-url "$URL" -concurrency "$SERVE_CONCURRENCY" -duration "$SERVE_DURATION" -out "$SERVE_OUT" -maxregress "$SERVE_MAXREGRESS")
if [ -f "$SERVE_OUT" ]; then
  cp "$SERVE_OUT" "$WORK/serve-baseline.json"
  LOADGEN_ARGS+=(-baseline "$WORK/serve-baseline.json")
fi
"$WORK/loadgen" "${LOADGEN_ARGS[@]}"
echo "wrote $SERVE_OUT"

# A clean SIGTERM drain is part of the bench contract: the daemon must
# exit 0 after the load.
kill -TERM "$SERVE_PID"
wait "$SERVE_PID"
SERVE_PID=""
