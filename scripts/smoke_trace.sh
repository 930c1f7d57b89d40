#!/usr/bin/env bash
# End-to-end smoke of the observability pipeline:
#
#   1. tbcs_sim --trace records a flight-recorder dump (and --stats must
#      emit parseable JSON);
#   2. tbcs_trace --summary reads the dump back;
#   3. tbcs_trace --chrome converts it to Chrome/Perfetto trace_event
#      JSON, which python3 must parse and find non-empty;
#   4. tbcs_trace --diff of the dump against itself must report a match
#      (exit 0), and against a different-seed dump must diverge (exit 1).
#
# Usage: smoke_trace.sh /path/to/tbcs_sim /path/to/tbcs_trace
set -euo pipefail

SIM_BIN="${1:?usage: smoke_trace.sh /path/to/tbcs_sim /path/to/tbcs_trace}"
TRACE_BIN="${2:?usage: smoke_trace.sh /path/to/tbcs_sim /path/to/tbcs_trace}"
TMPDIR_SMOKE="$(mktemp -d)"
trap 'rm -rf "$TMPDIR_SMOKE"' EXIT

run_sim() {
  "$SIM_BIN" --topology path --nodes 6 --algo aopt --duration 80 \
             --seed "$1" --trace "$2" --stats > "$3"
}

run_sim 11 "$TMPDIR_SMOKE/a.bin" "$TMPDIR_SMOKE/a.out"
run_sim 11 "$TMPDIR_SMOKE/same.bin" "$TMPDIR_SMOKE/same.out"
run_sim 99 "$TMPDIR_SMOKE/other.bin" "$TMPDIR_SMOKE/other.out"

# --stats prints the summary table first, then one JSON object starting at
# the first line that is exactly "{".
python3 - "$TMPDIR_SMOKE/a.out" <<'EOF'
import json, sys
text = open(sys.argv[1]).read()
start = text.index("\n{\n") + 1
doc = json.loads(text[start:])
for key in ("communication", "queue", "engine", "trace"):
    assert key in doc, f"--stats JSON missing {key!r}"
assert "metrics" not in doc, "--stats JSON still carries a \"metrics\" block"
assert doc["communication"]["events"] > 0, "no events processed"
assert doc["trace"]["total_recorded"] > 0, "trace recorded nothing"
print(f"--stats JSON OK ({doc['communication']['events']} events,"
      f" {doc['trace']['total_recorded']} trace records)")
EOF

"$TRACE_BIN" --summary "$TMPDIR_SMOKE/a.bin" > "$TMPDIR_SMOKE/summary.txt"
grep -q "records:" "$TMPDIR_SMOKE/summary.txt"
grep -q "deliver" "$TMPDIR_SMOKE/summary.txt"

"$TRACE_BIN" --chrome "$TMPDIR_SMOKE/a.bin" --out "$TMPDIR_SMOKE/a.chrome.json"
python3 - "$TMPDIR_SMOKE/a.chrome.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
events = doc["traceEvents"]
assert events, "empty traceEvents"
phases = {e["ph"] for e in events}
assert {"M", "i"} <= phases, f"missing phases: {phases}"
assert any(e["ph"] == "C" for e in events), "no counter tracks"
print(f"chrome trace OK ({len(events)} events, phases {sorted(phases)})")
EOF

"$TRACE_BIN" --diff "$TMPDIR_SMOKE/a.bin" "$TMPDIR_SMOKE/same.bin" \
  || { echo "FAIL: identical executions reported as divergent"; exit 1; }

if "$TRACE_BIN" --diff "$TMPDIR_SMOKE/a.bin" "$TMPDIR_SMOKE/other.bin" \
     > "$TMPDIR_SMOKE/diff.txt"; then
  echo "FAIL: different-seed executions reported as identical"
  exit 1
fi
grep -q "divergent\|recorded" "$TMPDIR_SMOKE/diff.txt"

echo "smoke_trace: OK"
