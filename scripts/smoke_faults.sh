#!/usr/bin/env bash
# End-to-end smoke of the fault-injection pipeline:
#
#   1. tbcs_sim --faults runs a mixed plan (crash/recover, flap, drift
#      spike, lossy channel) to quiescence; the summary must report the
#      fault tally and the --stats JSON must carry the "fault" block;
#   2. determinism: the same seed + plan rerun must produce a
#      byte-identical flight-recorder dump (tbcs_trace --diff exit 0),
#      and a different fault seed must diverge;
#   3. tbcs_trace --summary must list the injected fault records;
#   4. tbcs_sweep --faults must emit the recovery metric columns and be
#      byte-identical between --jobs 1 and --jobs 4;
#   5. every sweep row replayed through tbcs_sim --stats must report the
#      row's faults_applied / crashes / recoveries / recovery_time in the
#      stats JSON's "fault" block.
#
# Usage: smoke_faults.sh /path/to/tbcs_sim /path/to/tbcs_trace /path/to/tbcs_sweep
set -euo pipefail

USAGE="usage: smoke_faults.sh /path/to/tbcs_sim /path/to/tbcs_trace /path/to/tbcs_sweep"
SIM_BIN="${1:?$USAGE}"
TRACE_BIN="${2:?$USAGE}"
SWEEP_BIN="${3:?$USAGE}"
TMPDIR_SMOKE="$(mktemp -d)"
trap 'rm -rf "$TMPDIR_SMOKE"' EXIT

PLAN="$TMPDIR_SMOKE/plan.txt"
cat > "$PLAN" <<'EOF'
# mixed plan: one outage, one flapping link, a drift excursion, and a
# lossy/duplicating/corrupting channel window
crash node=3 at=15
recover node=3 at=30
flap u=0 v=1 at=20 period=4 count=2
drift node=2 at=10 rate=1.05 for=10
channel from=10 until=40 drop=0.2 dup=0.1 corrupt=0.1 magnitude=0.5 jitter=0.5
EOF

run_sim() {  # $1=seed $2=fault-seed $3=trace-out $4=stdout
  "$SIM_BIN" --topology ring --nodes 8 --algo aopt --duration 120 \
             --seed "$1" --faults "$PLAN" --fault-seed "$2" \
             --trace "$3" --stats > "$4"
}

run_sim 11 5 "$TMPDIR_SMOKE/a.bin" "$TMPDIR_SMOKE/a.out"
run_sim 11 5 "$TMPDIR_SMOKE/same.bin" "$TMPDIR_SMOKE/same.out"
run_sim 11 6 "$TMPDIR_SMOKE/other.bin" "$TMPDIR_SMOKE/other.out"

grep -q "faults applied" "$TMPDIR_SMOKE/a.out"
grep '^  "fault": {' "$TMPDIR_SMOKE/a.out" > "$TMPDIR_SMOKE/a.fault"
grep -q '"events_applied": ' "$TMPDIR_SMOKE/a.fault"
grep -q '"recovery_time": ' "$TMPDIR_SMOKE/a.fault"

# Same seed + same plan => byte-identical stats output (modulo the trace
# path each run embeds in its own --stats JSON).
sed "s|$TMPDIR_SMOKE/a.bin|TRACE|" "$TMPDIR_SMOKE/a.out" > "$TMPDIR_SMOKE/a.norm"
sed "s|$TMPDIR_SMOKE/same.bin|TRACE|" "$TMPDIR_SMOKE/same.out" > "$TMPDIR_SMOKE/same.norm"
cmp -s "$TMPDIR_SMOKE/a.norm" "$TMPDIR_SMOKE/same.norm" \
  || { echo "FAIL: faulty rerun output differs"; exit 1; }
"$TRACE_BIN" --diff "$TMPDIR_SMOKE/a.bin" "$TMPDIR_SMOKE/same.bin" \
  || { echo "FAIL: identical faulty executions reported as divergent"; exit 1; }

# A different fault seed draws different channel faults => divergence.
if "$TRACE_BIN" --diff "$TMPDIR_SMOKE/a.bin" "$TMPDIR_SMOKE/other.bin" \
     > /dev/null; then
  echo "FAIL: different fault seeds reported as identical"
  exit 1
fi

"$TRACE_BIN" --summary "$TMPDIR_SMOKE/a.bin" > "$TMPDIR_SMOKE/summary.txt"
grep -q "faults (" "$TMPDIR_SMOKE/summary.txt"
grep -q "crash" "$TMPDIR_SMOKE/summary.txt"

# Sweep: fault metric columns present, parallel == serial byte-for-byte.
SWEEP_ARGS=(--topology ring --nodes 8 --param eps --values 0.01,0.02
            --replicas 2 --duration 80 --seed 7 --faults "$PLAN")
"$SWEEP_BIN" "${SWEEP_ARGS[@]}" --jobs 1 > "$TMPDIR_SMOKE/serial.csv"
"$SWEEP_BIN" "${SWEEP_ARGS[@]}" --jobs 4 > "$TMPDIR_SMOKE/parallel.csv"
if ! diff -u "$TMPDIR_SMOKE/serial.csv" "$TMPDIR_SMOKE/parallel.csv"; then
  echo "FAIL: faulty sweep differs between --jobs 1 and --jobs 4" >&2
  exit 1
fi
header="$(head -n 1 "$TMPDIR_SMOKE/serial.csv")"
case "$header" in
  *faults_applied,crashes,recoveries,recovery_time) ;;
  *) echo "FAIL: fault metric columns missing from header: $header" >&2
     exit 1 ;;
esac

# Sweep <-> sim fault parity: every row of a --jobs 4 JSON sweep replays
# through tbcs_sim with the row's seed (the fault seed defaults to it in
# both tools), and the row's fault metrics must equal the "fault" block of
# --stats.  The sweep's JSON prints 12 significant digits, so the block's
# value is compared at that precision.
"$SWEEP_BIN" "${SWEEP_ARGS[@]}" --jobs 4 --format json > "$TMPDIR_SMOKE/sweep.json"
python3 - "$SIM_BIN" "$PLAN" "$TMPDIR_SMOKE/sweep.json" <<'EOF'
import json, subprocess, sys
sim_bin, plan, sweep_json = sys.argv[1:]
rows = json.load(open(sweep_json))
assert len(rows) == 4, f"expected 4 sweep rows, got {len(rows)}"
pairs = [("faults_applied", "events_applied"), ("crashes", "crashes"),
         ("recoveries", "recoveries"), ("recovery_time", "recovery_time")]
for row in rows:
    out = subprocess.run(
        [sim_bin, "--topology", "ring", "--nodes", "8", "--duration", "80",
         "--drift", "square", "--delays", "hiding", "--eps",
         row["eps"], "--seed", str(row["seed"]), "--faults", plan,
         "--stats"], check=True, capture_output=True, text=True).stdout
    fault = json.loads(out[out.index("\n{\n") + 1:])["fault"]
    for col, key in pairs:
        if row["metrics"][col] != float("%.12g" % fault[key]):
            sys.exit(f"FAIL: seed {row['seed']}: sweep {col}="
                     f"{row['metrics'][col]}, tbcs_sim fault.{key}={fault[key]}")
EOF

echo "smoke_faults: OK (deterministic faulty runs, trace diff, sweep columns, sweep == sim fault block per row)"
