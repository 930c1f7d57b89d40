#!/usr/bin/env bash
# Local CI: the tier-1 gate plus a sanitizer smoke.
#
#   1. Tier 1: configure, build, ctest — the contract every change must
#      keep green (same commands as ROADMAP.md).
#   2. Sanitizer smoke: rebuild the simulator tool, the trace tool, the
#      runtime tests, and the obs tests with ASan+UBSan
#      (-DTBCS_SANITIZE=address,undefined) and run them.  The threaded
#      runtime is the piece most at risk of memory/lifetime bugs, so it
#      gets sanitizer coverage even in a quick pass.  A churned tbcs_sim
#      --stats run under a fault plan with a channel window covers the
#      run report behind the "churn" and "fault" stats blocks.  The skew tracker, stabilization probe and
#      history-backend tests cover both sampling semantics (exact and
#      grid) in both engines.  A faulty sweep on 4 workers (tbcs_sweep --jobs 4
#      --faults) runs the shared run path (cli::ExperimentRun) under ASan
#      on pool threads.
#   3. TSan smoke: rebuild the threaded-runtime tests (including the
#      fault-injection paths: partitions, link flips, the channel hook,
#      and the stop() watchdog) and the sharded-engine tests (worker
#      lanes, window barriers, cross-shard mailboxes, recording policies
#      under concurrent lanes) with -DTBCS_SANITIZE=thread and run them,
#      plus the churn-equivalence tests (joins/leaves, link churn, and
#      mid-run repartition migration across concurrent lanes) and the
#      fault/shard equivalence tests (chaos plans driving scrambles and
#      Byzantine windows through the concurrent lanes), and the exec
#      tests (the sweep pool runs the shared run path on worker threads).
#      These are the only tests with real cross-thread contention; the
#      three equivalence suites run with --gtest_repeat=3.
#   4. Sharded smoke + perf gate: smoke_shards.sh equivalence gates plus
#      SMOKE_SHARDS_PERF=1, which fails if --shards 4 runs >10% slower
#      than --shards 1 on an n=16384 path or an n=16383 tree (the
#      window-stall and tree-partition regressions).
#   5. Churn determinism smoke: smoke_churn.sh — a dynamic-network run
#      (node joins/leaves + edge churn through the kllo node) must be
#      byte-identical serial vs --shards {1,2,4} and --jobs 1 vs 4
#      through a churned sweep.
#   6. Fault-tolerant GCS smoke: smoke_ftgcs.sh — a Byzantine chaos plan
#      through --algo ftgcs must be byte-identical serial vs --shards
#      {1,2,4}, report an engine-independent "fault" block, stabilize in
#      finite time from a scramble, and sweep --jobs 1 == 4.
#   7. Telemetry-backend smoke: smoke_obs.sh — the stair history backend
#      must stay within its advertised error bound of exact, perturb the
#      execution by zero bytes, report engine-invariant sketch figures
#      serial vs --shards 4, and sweep --jobs 1 == 4 with the sketch
#      columns.
#   8. Large-n queue gate: tests/queue_race fails if the ladder queue is
#      < 1.2x the reference 4-ary heap on a hold workload sized like the
#      serial line n=100000 run (~300k queued events); smoke_bench.sh
#      then re-checks the small-n geomean, so the ladder can't buy
#      large-n throughput with a small-n regression.
#   9. Benchmark self-test: perfbench/run.py --selftest builds the
#      benchmark binary and runs its own C++ and Python tests.
#
# Usage: scripts/ci.sh [jobs]     (default: nproc)
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="${1:-$(nproc)}"

echo "=== tier 1: build + ctest (jobs=$JOBS) ==="
cmake -B build -S . > /dev/null
cmake --build build -j "$JOBS"
(cd build && ctest --output-on-failure -j "$JOBS")

echo
echo "=== sanitizer smoke: ASan+UBSan (jobs=$JOBS) ==="
cmake -B build-asan -S . -DTBCS_SANITIZE=address,undefined > /dev/null
cmake --build build-asan -j "$JOBS" --target \
  tbcs_sim_tool tbcs_sweep tbcs_trace test_runtime test_obs \
  test_trace_tools test_skew_incremental test_stabilization_probe \
  test_history_backend

SAN_TMP="$(mktemp -d)"
trap 'rm -rf "$SAN_TMP"' EXIT
build-asan/tools/tbcs_sim --topology grid --rows 4 --cols 4 --algo aopt \
  --duration 60 --trace "$SAN_TMP/t.bin" --stats > /dev/null
build-asan/tools/tbcs_trace --summary "$SAN_TMP/t.bin" > /dev/null
build-asan/tools/tbcs_trace --chrome "$SAN_TMP/t.bin" --out "$SAN_TMP/t.json"
printf '%s\n' "crash node=3 at=10" "recover node=3 at=20" \
  "byzantine node=5 from=5 until=25 mode=fixed offset=50" \
  "channel from=12 until=30 drop=0.1 jitter=0.2" \
  "scramble node=7 at=28 magnitude=4" > "$SAN_TMP/plan.txt"
build-asan/tools/tbcs_sweep --topology ring --nodes 16 --algo ftgcs \
  --delays band --param eps --values 0.01,0.02 --replicas 4 --duration 40 \
  --jobs 4 --faults "$SAN_TMP/plan.txt" > /dev/null
build-asan/tools/tbcs_sim --topology torus --rows 6 --cols 6 --algo ftgcs \
  --delays band --duration 60 --churn-node-rate 0.01 --churn-edge-rate 0.01 \
  --churn-extra-edges 0.2 --faults "$SAN_TMP/plan.txt" --stats \
  > "$SAN_TMP/report.out"
grep -q '^  "churn": {' "$SAN_TMP/report.out"
grep -q '^  "fault": {.*"channel_dropped"' "$SAN_TMP/report.out"
build-asan/tests/test_runtime
build-asan/tests/test_obs
build-asan/tests/test_trace_tools
build-asan/tests/test_skew_incremental
build-asan/tests/test_stabilization_probe
build-asan/tests/test_history_backend

echo
echo "=== sanitizer smoke: TSan threaded runtime + sharded engine (jobs=$JOBS) ==="
cmake -B build-tsan -S . -DTBCS_SANITIZE=thread > /dev/null
cmake --build build-tsan -j "$JOBS" --target \
  test_runtime test_runtime_faults test_sharded_equivalence \
  test_churn_equivalence test_fault_shard_equivalence test_exec
build-tsan/tests/test_runtime
build-tsan/tests/test_runtime_faults
# The equivalence suites run three times over: lanes write the shared
# touch marks and slot arrays concurrently, and a race that one pass
# misses on a 4-core host can surface on the next.
build-tsan/tests/test_sharded_equivalence --gtest_repeat=3
build-tsan/tests/test_churn_equivalence --gtest_repeat=3
build-tsan/tests/test_fault_shard_equivalence --gtest_repeat=3
build-tsan/tests/test_exec

echo
echo "=== sharded smoke + perf gate ==="
SMOKE_SHARDS_PERF=1 bash scripts/smoke_shards.sh \
  build/tools/tbcs_sim build/tools/tbcs_trace

echo
echo "=== churn determinism smoke ==="
bash scripts/smoke_churn.sh \
  build/tools/tbcs_sim build/tools/tbcs_trace build/tools/tbcs_sweep

echo
echo "=== fault-tolerant GCS smoke ==="
bash scripts/smoke_ftgcs.sh \
  build/tools/tbcs_sim build/tools/tbcs_trace build/tools/tbcs_sweep

echo
echo "=== telemetry-backend smoke ==="
bash scripts/smoke_obs.sh \
  build/tools/tbcs_sim build/tools/tbcs_trace build/tools/tbcs_sweep

echo
echo "=== large-n queue gate ==="
build/tests/queue_race
bash scripts/smoke_bench.sh build/bench/bench_core_hotpath BENCH_pr2.json

echo
echo "=== benchmark self-test ==="
python3 perfbench/run.py --selftest

echo
echo "ci.sh: all green"
