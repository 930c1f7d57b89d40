#!/usr/bin/env bash
# Churned-run determinism smoke: node joins/leaves and edge churn at
# production rate must not cost a single byte of determinism.
#
#   1. serial vs --shards 1: the execution record and the flight-recorder
#      trace (tbcs_trace --diff) must match, and the stats JSON must match
#      after stripping the "engine"/"queue_impl" blocks and normalizing
#      queue peak_size.  The peak is the one sanctioned difference: the
#      sharded engine reports a canonical pending count sampled at window
#      barriers, which legitimately under-reads the serial per-push peak —
#      churn's up-front event flood makes the transient serial high-water
#      mark routinely exceed any barrier sample.  Pushes/pops and every
#      churn counter stay byte-compared.
#   2. --shards 1 vs 2 vs 4: record, stats JSON (engine/queue_impl
#      stripped), and trace dump byte-identical — including the
#      watermark-triggered repartitions the churn driver performs.
#   3. tbcs_sweep with churn flags: --jobs 1 == --jobs 4 byte-for-byte.
#   4. Sanity: the runs actually churned (joins, leaves, and edge
#      insertions all nonzero in the stats).
#
# That the event queue replays the retired heap queue's churned runs is
# pinned by digest in tests/dyn/test_churn_equivalence.cpp
# (ChurnEquivalenceQueues.HeapAndLadderAgree).
#
# Usage: smoke_churn.sh /path/to/tbcs_sim /path/to/tbcs_trace /path/to/tbcs_sweep
set -euo pipefail

SIM_BIN="${1:?usage: smoke_churn.sh tbcs_sim tbcs_trace tbcs_sweep}"
TRACE_BIN="${2:?usage: smoke_churn.sh tbcs_sim tbcs_trace tbcs_sweep}"
SWEEP_BIN="${3:?usage: smoke_churn.sh tbcs_sim tbcs_trace tbcs_sweep}"
TMPDIR_SMOKE="$(mktemp -d)"
trap 'rm -rf "$TMPDIR_SMOKE"' EXIT

# band delays: positive min delay, so the sharded engine has lookahead.
# The dynamic-GCS node (kllo) exercises the ramp arithmetic on every
# churned link; --shards-min-nodes 0 disables the production auto-clamp
# (n = 36 is below the 64-nodes-per-lane default).
run_sim() {  # run_sim <shards> <tag> [extra flags...]
  local shards="$1" tag="$2"
  shift 2
  "$SIM_BIN" --topology torus --rows 6 --cols 6 --algo kllo \
             --delays band --drift walk --duration 200 --seed 42 \
             --wake-all \
             --churn-node-rate 0.01 --churn-edge-rate 0.01 \
             --churn-downtime 10 --churn-extra-edges 0.2 \
             --churn-start 5 --churn-stop 160 \
             --shards "$shards" --shards-min-nodes 0 \
             --record "$TMPDIR_SMOKE/$tag.rec" \
             --trace "$TMPDIR_SMOKE/$tag.bin" \
             --stats-json "$TMPDIR_SMOKE/$tag.stats" \
             "$@" > "$TMPDIR_SMOKE/$tag.out"
}

# canon_stats (shared): strips the blocks that are *supposed* to differ
# across engines/shard counts; normalize_peak additionally zeroes queue
# peak_size (see header: barrier-sampled vs per-push peak).
. "$(dirname "$0")/stats_filter.sh"

run_sim 0 serial
for n in 1 2 4; do
  run_sim "$n" "s$n"
done

# Gate 1: serial vs one shard.
cmp "$TMPDIR_SMOKE/serial.rec" "$TMPDIR_SMOKE/s1.rec" \
  || { echo "FAIL: record serial != --shards 1"; exit 1; }
"$TRACE_BIN" --diff "$TMPDIR_SMOKE/serial.bin" "$TMPDIR_SMOKE/s1.bin" \
  || { echo "FAIL: trace serial != --shards 1"; exit 1; }
cmp <(canon_stats "$TMPDIR_SMOKE/serial.stats" norm) \
    <(canon_stats "$TMPDIR_SMOKE/s1.stats" norm) \
  || { echo "FAIL: stats serial != --shards 1"; exit 1; }

# Gate 2: shard counts agree on everything.
for n in 2 4; do
  cmp "$TMPDIR_SMOKE/s1.rec" "$TMPDIR_SMOKE/s$n.rec" \
    || { echo "FAIL: rec --shards 1 != --shards $n"; exit 1; }
  cmp <(canon_stats "$TMPDIR_SMOKE/s1.stats") \
      <(canon_stats "$TMPDIR_SMOKE/s$n.stats") \
    || { echo "FAIL: stats --shards 1 != --shards $n"; exit 1; }
  "$TRACE_BIN" --diff "$TMPDIR_SMOKE/s1.bin" "$TMPDIR_SMOKE/s$n.bin" \
    || { echo "FAIL: trace --shards 1 != --shards $n"; exit 1; }
done

# Gate 3: the parallel sweep stays deterministic with churn flags on.
SWEEP_ARGS=(--topology ring --nodes 12 --algo kllo --delays band
            --param eps --values 0.01,0.02 --replicas 2
            --duration 80 --seed 7 --wake-all
            --churn-node-rate 0.02 --churn-edge-rate 0.02
            --churn-downtime 5 --churn-start 4 --churn-stop 60)
"$SWEEP_BIN" "${SWEEP_ARGS[@]}" --jobs 1 > "$TMPDIR_SMOKE/sweep1.csv"
"$SWEEP_BIN" "${SWEEP_ARGS[@]}" --jobs 4 > "$TMPDIR_SMOKE/sweep4.csv"
cmp "$TMPDIR_SMOKE/sweep1.csv" "$TMPDIR_SMOKE/sweep4.csv" \
  || { echo "FAIL: churned sweep --jobs 1 != --jobs 4"; exit 1; }

# Gate 4: the runs actually churned.
churn_line="$(grep '^  "churn": {' "$TMPDIR_SMOKE/serial.stats" || true)"
for key in '"joins": [1-9]' '"leaves": [1-9]' '"edge_insertions": [1-9]'; do
  grep -q "$key" <<< "$churn_line" \
    || { echo "FAIL: stats missing churn activity ($key)"; exit 1; }
done

echo "smoke_churn: OK (serial == shards 1/2/4, jobs 1 == 4)"
