#!/usr/bin/env bash
# Perf smoke for the hot-path benchmark trajectory:
#
#   1. runs `bench_core_hotpath --quick` (the n=64 subset of the full
#      sweep, identical workloads and result names);
#   2. validates the tbcs-bench-v1 schema of the fresh output AND of the
#      checked-in baseline (BENCH_pr2.json);
#   3. fails on a >30% regression of the incremental/oracle speedup ratio
#      versus the baseline, aggregated (geometric mean) over the configs
#      present in both files.  The ratio comes from one process run back
#      to back, so it is robust to absolute machine speed and
#      ctest-induced CPU contention, unlike raw events/sec; the geomean
#      smooths the run-to-run noise of the ~10ms quick configs, which a
#      per-config gate would trip on.
#
# The large-n queue gate (ladder >= 1.2x the reference heap) lives in the
# queue_race test binary; scripts/ci.sh runs it next to this script.
#
# Usage: smoke_bench.sh /path/to/bench_core_hotpath [baseline.json]
set -euo pipefail

BENCH_BIN="${1:?usage: smoke_bench.sh /path/to/bench_core_hotpath [baseline.json]}"
BASELINE="${2:-}"
TMPDIR_SMOKE="$(mktemp -d)"
trap 'rm -rf "$TMPDIR_SMOKE"' EXIT

"$BENCH_BIN" --quick --out "$TMPDIR_SMOKE/quick.json" --label smoke > "$TMPDIR_SMOKE/quick.log"

validate() {
  python3 - "$1" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
assert doc.get("schema") == "tbcs-bench-v1", f"bad schema: {doc.get('schema')}"
assert isinstance(doc.get("label"), str) and doc["label"], "missing label"
results = doc.get("results")
assert isinstance(results, list) and results, "missing results"
names = set()
for r in results:
    name = r.get("name")
    assert isinstance(name, str) and name, f"result without name: {r}"
    assert name not in names, f"duplicate result name: {name}"
    names.add(name)
    for key, value in r.items():
        if key == "name":
            continue
        assert isinstance(value, (int, float)), f"{name}.{key} is not numeric"
print(f"{sys.argv[1]}: tbcs-bench-v1 OK, {len(results)} results")
EOF
}

validate "$TMPDIR_SMOKE/quick.json"

if [[ -z "$BASELINE" || ! -f "$BASELINE" ]]; then
  echo "smoke_bench: OK (no checked-in baseline to regress against)"
  exit 0
fi

validate "$BASELINE"

python3 - "$TMPDIR_SMOKE/quick.json" "$BASELINE" <<'EOF'
import json, math, sys

def speedups(path):
    with open(path) as f:
        doc = json.load(f)
    eps = {r["name"]: r["events_per_sec"] for r in doc["results"]
           if "events_per_sec" in r}
    out = {}
    for name, value in eps.items():
        if not name.endswith("_incremental"):
            continue
        oracle = eps.get(name[: -len("_incremental")] + "_oracle")
        if oracle:
            out[name[: -len("_incremental")]] = value / oracle
    return out

quick, base = speedups(sys.argv[1]), speedups(sys.argv[2])
shared = sorted(set(quick) & set(base))
if not shared:
    sys.exit("FAIL: no configs shared between quick run and baseline")
ratios = []
for name in shared:
    ratio = quick[name] / base[name]
    ratios.append(ratio)
    print(f"{name}: speedup {quick[name]:.2f}x vs baseline {base[name]:.2f}x"
          f" ({ratio:.2f})")
geomean = math.exp(sum(math.log(r) for r in ratios) / len(ratios))
print(f"geomean ratio over {len(shared)} configs: {geomean:.2f}")
if geomean < 0.7:
    sys.exit("FAIL: hot-path speedup regressed by more than 30% (geomean)")
print("smoke_bench: OK (aggregate speedup within 30% of baseline)")
EOF
