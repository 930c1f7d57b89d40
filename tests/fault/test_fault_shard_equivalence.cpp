// Fault figures must be engine-independent: the same mixed chaos plan
// (Byzantine windows, a drift spike, a lossy channel, crash/recovery and
// a scramble) produces bitwise-identical skew maxima, recovery time and
// stabilization time on the serial engine and at every shard count.
//
// The mechanism under test is the probe-grid classification: both
// engines deliver a sample at exactly every k * probe_interval with
// exactly the same events applied, so restricting recovery
// classification to that grid (SkewTracker::recovery_classify_interval)
// makes the fault metrics a pure function of the execution, not of the
// engine's sampling cadence.
#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <string>
#include <vector>

#include "cli/experiment_config.hpp"
#include "cli/experiment_run.hpp"
#include "support/temp_file.hpp"

namespace tbcs {
namespace {

struct FaultMetrics {
  double global_skew = 0.0;
  double local_skew = 0.0;
  double recovery_time = 0.0;        // NaN-safe compare via bit pattern
  double stabilization_time = 0.0;
  std::uint64_t crashes = 0;
  std::uint64_t recoveries = 0;
  std::uint64_t scrambles = 0;
  std::uint64_t faults_applied = 0;
  std::uint64_t events = 0;
};

void write_plan(const std::string& path) {
  std::ofstream os(path);
  // Mixed chaos on a 5-dim hypercube: two Byzantine liars (one up, one
  // down, both lying from first contact), a crash/recovery, a drift
  // spike, a lossy channel window, and a late scramble for the
  // stabilization probe.
  os << "byzantine node=1 from=0 until=120 mode=fixed offset=1000\n"
        "byzantine node=2 from=0 until=120 mode=fixed offset=-1000\n"
        "crash node=9 at=30\n"
        "recover node=9 at=55\n"
        "drift node=4 at=60 rate=1.05 for=15\n"
        "channel from=70 until=95 drop=0.15 jitter=0.3\n"
        "scramble node=12 at=150 magnitude=6\n"
        "scramble node=21 at=150 magnitude=6\n";
}

cli::ExperimentConfig chaos_config(const std::string& plan) {
  cli::ExperimentConfig cfg;
  cfg.topology = "hypercube";
  cfg.dims = 5;
  cfg.algorithm = "ftgcs";
  cfg.ftgcs_f = 2;
  cfg.drift = "square";
  cfg.delays = "band";
  cfg.duration = 250.0;
  cfg.seed = 11;
  cfg.wake_all = true;
  cfg.faults_file = plan;
  cfg.min_shard_nodes = 0;  // tiny graph: let multi-shard paths really run
  return cfg;
}

// Runs through the shipped run path (cli::ExperimentRun, shared with
// tbcs_sim and the sweep runner): recovery bounds from the paper
// theorems, Byzantine nodes excluded, classification on the probe grid.
FaultMetrics run_case(cli::ExperimentConfig cfg, int shards) {
  cfg.shards = shards;
  auto built = cli::build_experiment(cfg);
  cli::ExperimentRun run(built, cfg, {});
  run.run();

  const analysis::SkewTracker& tracker = run.tracker();
  FaultMetrics m;
  m.global_skew = tracker.max_global_skew();
  m.local_skew = tracker.max_local_skew();
  m.recovery_time = tracker.recovery_time();
  m.stabilization_time = tracker.stabilization_time();
  m.crashes = built.simulator->crashes();
  m.recoveries = built.simulator->recoveries();
  m.scrambles = built.simulator->scrambles();
  m.faults_applied = run.faults()->applied();
  m.events = built.simulator->events_processed();
  return m;
}

// Fault figures are classified on the probe grid, so they must match
// the serial run bitwise (NaN == NaN: both "never recovered" is a match;
// serial recovering while sharded did not is the bug under test).  The
// running skew *maxima* are deliberately excluded from the serial
// comparison: the serial engine samples every event while the sharded
// engine samples window barriers, so the maxima are figures of the
// sampling cadence (smoke_shards draws the same line for stats JSON).
void expect_same_fault_metrics(const FaultMetrics& a, const FaultMetrics& b) {
  EXPECT_TRUE((std::isnan(a.recovery_time) && std::isnan(b.recovery_time)) ||
              a.recovery_time == b.recovery_time)
      << a.recovery_time << " vs " << b.recovery_time;
  EXPECT_TRUE(
      (std::isnan(a.stabilization_time) && std::isnan(b.stabilization_time)) ||
      a.stabilization_time == b.stabilization_time)
      << a.stabilization_time << " vs " << b.stabilization_time;
  EXPECT_EQ(a.crashes, b.crashes);
  EXPECT_EQ(a.recoveries, b.recoveries);
  EXPECT_EQ(a.scrambles, b.scrambles);
  EXPECT_EQ(a.faults_applied, b.faults_applied);
  EXPECT_EQ(a.events, b.events);
}

TEST(FaultShardEquivalence, ChaosMetricsMatchSerialAtEveryShardCount) {
  const testing_support::TempFile plan("tbcs_chaos_plan.txt");
  write_plan(plan.path());
  const cli::ExperimentConfig cfg = chaos_config(plan.path());
  const FaultMetrics serial = run_case(cfg, 0);
  // The plan really ran: all 12 events applied, both scrambles seen, and
  // the scramble probe produced a finite self-stabilization time.
  EXPECT_EQ(serial.faults_applied, 12u);
  EXPECT_EQ(serial.crashes, 1u);
  EXPECT_EQ(serial.scrambles, 2u);
  EXPECT_FALSE(std::isnan(serial.stabilization_time));

  std::vector<FaultMetrics> sharded;
  for (const int shards : {1, 2, 4}) {
    SCOPED_TRACE(testing::Message() << "shards=" << shards);
    sharded.push_back(run_case(cfg, shards));
    expect_same_fault_metrics(serial, sharded.back());
  }
  // Among shard counts everything must agree, skew maxima included: the
  // barrier grid and touched sets are shard-count invariant.
  for (std::size_t i = 1; i < sharded.size(); ++i) {
    SCOPED_TRACE(testing::Message() << "sharded run " << i);
    EXPECT_DOUBLE_EQ(sharded[0].global_skew, sharded[i].global_skew);
    EXPECT_DOUBLE_EQ(sharded[0].local_skew, sharded[i].local_skew);
    expect_same_fault_metrics(sharded[0], sharded[i]);
  }
}

}  // namespace
}  // namespace tbcs
