#!/usr/bin/env bash
# Telemetry-backend smoke: the pluggable history stores must be
# observer-only, bounded, and engine-invariant end to end.
#
#   1. Error bound: on a grid with random-walk drift, the stair backend's
#      reported skew maxima must lie within the advertised error bound of
#      the exact backend's (never above; below by at most the bound from
#      the stats "obs" block).
#   2. Observer-only: switching --obs-backend exact -> stair must not
#      perturb the execution by one byte (record and flight-recorder
#      trace compared byte-for-byte at identical engine configuration).
#   3. Engine invariance: a stair run is byte-identical serial vs
#      --shards 4 on the record, and on the stats JSON after canon_stats
#      (which keeps the "obs" block — the sketch is a pure function of
#      the grid-sampled append sequence, so it must not move).
#   4. Sweep determinism: tbcs_sweep --obs-backend stair is byte-identical
#      between --jobs 1 and --jobs 4 and carries the three sketch columns;
#      the exact-backend header stays unchanged.
#   5. Trace timeline: tbcs_trace --summary --obs-backend stair appends a
#      bounded-memory event-rate timeline to the dump summary.
#
# Usage: smoke_obs.sh /path/to/tbcs_sim /path/to/tbcs_trace /path/to/tbcs_sweep
set -euo pipefail

USAGE="usage: smoke_obs.sh /path/to/tbcs_sim /path/to/tbcs_trace /path/to/tbcs_sweep"
SIM_BIN="${1:?$USAGE}"
TRACE_BIN="${2:?$USAGE}"
SWEEP_BIN="${3:?$USAGE}"
TMPDIR_SMOKE="$(mktemp -d)"
trap 'rm -rf "$TMPDIR_SMOKE"' EXIT

# canon_stats: shared stats canonicalizer (strips engine/queue_impl).
. "$(dirname "$0")/stats_filter.sh"

run_sim() {  # run_sim <backend> <shards> <tag> [extra flags...]
  local backend="$1" shards="$2" tag="$3"
  shift 3
  "$SIM_BIN" --topology grid --rows 6 --cols 6 --algo aopt \
             --delays band --drift rwalk --duration 120 --seed 17 \
             --wake-all --obs-backend "$backend" --obs-memory-kb 32 \
             --shards "$shards" --shards-min-nodes 0 \
             --record "$TMPDIR_SMOKE/$tag.rec" \
             --trace "$TMPDIR_SMOKE/$tag.bin" \
             --stats-json "$TMPDIR_SMOKE/$tag.stats" \
             "$@" > "$TMPDIR_SMOKE/$tag.out" 2> "$TMPDIR_SMOKE/$tag.err"
}

summary_row() {  # summary_row <file> <label> -> value (last field)
  awk -v lbl="$2" '$0 ~ lbl { print $NF }' "$1" | head -n 1
}

run_sim exact 0 exact
run_sim stair 0 stair

# Gate 1: stair skew within the advertised bound of exact.
g_exact="$(summary_row "$TMPDIR_SMOKE/exact.out" "global skew")"
g_stair="$(summary_row "$TMPDIR_SMOKE/stair.out" "global skew")"
l_exact="$(summary_row "$TMPDIR_SMOKE/exact.out" "local skew")"
l_stair="$(summary_row "$TMPDIR_SMOKE/stair.out" "local skew")"
err="$(grep -o '"error_bound": [0-9.eE+-]*' "$TMPDIR_SMOKE/stair.stats" \
         | grep -o '[0-9.eE+-]*$')"
awk -v ge="$g_exact" -v gs="$g_stair" -v le="$l_exact" -v ls="$l_stair" \
    -v err="$err" 'BEGIN {
  if (err <= 0)                { print "bad error bound " err; exit 1 }
  if (gs > ge + 1e-9)          { print "stair global " gs " > exact " ge; exit 1 }
  if (gs < ge - err - 1e-9)    { print "stair global " gs " below bound (exact " ge ", err " err ")"; exit 1 }
  if (ls > le + 1e-9)          { print "stair local " ls " > exact " le; exit 1 }
}' || { echo "FAIL: stair skew outside advertised bound"; exit 1; }
echo "smoke_obs: bound OK (global $g_stair in [$g_exact - $err, $g_exact])"

# Gate 2: backend is observer-only — identical execution, byte for byte.
cmp "$TMPDIR_SMOKE/exact.rec" "$TMPDIR_SMOKE/stair.rec" \
  || { echo "FAIL: record exact != stair"; exit 1; }
cmp "$TMPDIR_SMOKE/exact.bin" "$TMPDIR_SMOKE/stair.bin" \
  || { echo "FAIL: trace exact != stair"; exit 1; }

# Gate 3: stair figures are engine-invariant (serial vs --shards 4).
run_sim stair 4 stair-s4
cmp "$TMPDIR_SMOKE/stair.rec" "$TMPDIR_SMOKE/stair-s4.rec" \
  || { echo "FAIL: stair record serial != --shards 4"; exit 1; }
cmp <(canon_stats "$TMPDIR_SMOKE/stair.stats" norm) \
    <(canon_stats "$TMPDIR_SMOKE/stair-s4.stats" norm) \
  || { echo "FAIL: stair stats serial != --shards 4"; exit 1; }
"$TRACE_BIN" --diff "$TMPDIR_SMOKE/stair.bin" "$TMPDIR_SMOKE/stair-s4.bin" \
  || { echo "FAIL: stair trace serial != --shards 4"; exit 1; }
grep -q '"obs": {"backend": "stair"' "$TMPDIR_SMOKE/stair-s4.stats" \
  || { echo "FAIL: obs block missing from sharded stats"; exit 1; }

# Gate 4: the sweep stays deterministic and grows the sketch columns.
SWEEP_ARGS=(--topology ring --nodes 12 --algo aopt --delays band
            --param eps --values 0.01,0.02 --replicas 2
            --duration 80 --seed 7 --wake-all --obs-backend stair)
"$SWEEP_BIN" "${SWEEP_ARGS[@]}" --jobs 1 > "$TMPDIR_SMOKE/sweep1.csv"
"$SWEEP_BIN" "${SWEEP_ARGS[@]}" --jobs 4 > "$TMPDIR_SMOKE/sweep4.csv"
cmp "$TMPDIR_SMOKE/sweep1.csv" "$TMPDIR_SMOKE/sweep4.csv" \
  || { echo "FAIL: stair sweep --jobs 1 != --jobs 4"; exit 1; }
header="$(head -n 1 "$TMPDIR_SMOKE/sweep1.csv")"
for col in skew_error_bound obs_history_bytes obs_history_windows; do
  case "$header" in
    *"$col"*) ;;
    *) echo "FAIL: sketch column $col missing from sweep header: $header"
       exit 1 ;;
  esac
done
"$SWEEP_BIN" "${SWEEP_ARGS[@]/stair/exact}" --jobs 1 \
  > "$TMPDIR_SMOKE/sweep-exact.csv"
case "$(head -n 1 "$TMPDIR_SMOKE/sweep-exact.csv")" in
  *skew_error_bound*)
    echo "FAIL: exact sweep header grew sketch columns"; exit 1 ;;
esac

# Gate 5: the trace tool can replay a dump through the stair store.
"$TRACE_BIN" --summary "$TMPDIR_SMOKE/stair.bin" \
             --obs-backend stair --obs-memory-kb 8 \
  > "$TMPDIR_SMOKE/trace-summary.out"
grep -q "timeline (stair backend)" "$TMPDIR_SMOKE/trace-summary.out" \
  || { echo "FAIL: no stair timeline in tbcs_trace --summary"; exit 1; }

echo "smoke_obs: OK (bound, observer-only, engine-invariant, sweep, timeline)"
