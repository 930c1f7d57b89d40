// cli::ExperimentRun is the one run path: tbcs_sim, the sweep runner and
// the equivalence suites all observe and pace a configured experiment
// through it.  These cases pin that a sweep row (SweepRunner::run_one)
// is exactly the ExperimentRun figures for the same config and seed —
// under a fault plan, under churn and on the stair backend — and that
// pacing a churned run with the churn driver leaves every figure as the
// plain run_until run reports it.
#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <string>

#include "cli/args.hpp"
#include "cli/experiment_config.hpp"
#include "cli/experiment_run.hpp"
#include "exec/sweep_runner.hpp"
#include "support/temp_file.hpp"

namespace tbcs {
namespace {

double metric(const exec::RunResult& r, const std::string& name) {
  for (const auto& [key, value] : r.metrics) {
    if (key == name) return value;
  }
  ADD_FAILURE() << "no metric " << name;
  return std::nan("");
}

// Runs `cfg` as sweep run 0 under base seed `base_seed`, then the same
// config and derived seed through ExperimentRun, and requires the row to
// carry exactly the run's figures.
void expect_row_matches_run(const cli::ExperimentConfig& cfg,
                            std::uint64_t base_seed) {
  exec::SweepOptions sopt;
  sopt.base_seed = base_seed;
  sopt.audit_epsilon = cfg.eps;
  const exec::RunResult row =
      exec::SweepRunner::run_one(exec::RunSpec{cfg, {}}, 0, sopt);
  ASSERT_TRUE(row.ok) << row.error;

  cli::ExperimentConfig c = cfg;
  c.seed = row.seed;
  auto built = cli::build_experiment(c);
  cli::ExperimentRun run(built, c, {.audit_epsilon = cfg.eps});
  run.run();
  const analysis::SkewTracker& t = run.tracker();
  const sim::Simulator& sim = *built.simulator;

  EXPECT_EQ(row.diameter, run.diameter());
  EXPECT_EQ(row.global_bound, run.global_bound());
  EXPECT_EQ(row.local_bound, run.local_bound());
  EXPECT_EQ(row.global_skew, t.max_global_skew());  // bitwise
  EXPECT_EQ(row.local_skew, t.max_local_skew());
  EXPECT_EQ(row.envelope_violation, t.max_envelope_violation());
  EXPECT_EQ(row.messages, sim.messages_delivered());
  EXPECT_EQ(row.broadcasts, sim.broadcasts());
  EXPECT_EQ(metric(row, "events"),
            static_cast<double>(sim.events_processed()));
  if (run.faults() != nullptr) {
    EXPECT_EQ(metric(row, "faults_applied"),
              static_cast<double>(run.faults()->applied()));
    const double rec = t.recovery_time();
    EXPECT_EQ(metric(row, "recovery_time"), std::isnan(rec) ? -1.0 : rec);
  }
  if (run.stair()) {
    EXPECT_EQ(metric(row, "skew_error_bound"), t.skew_error_bound());
    EXPECT_EQ(metric(row, "obs_history_bytes"),
              static_cast<double>(t.history_memory_bytes()));
  }
}

cli::ExperimentConfig churned_torus() {
  cli::ExperimentConfig cfg;
  cfg.topology = "torus";
  cfg.rows = 16;
  cfg.cols = 16;
  cfg.delays = "band";  // positive min delay, so the run can shard
  cfg.duration = 100.0;
  cfg.seed = 16834447057089888969ULL;
  cfg.churn_node_rate = 0.002;
  cfg.churn_edge_rate = 0.01;
  cfg.churn_extra_edges = 0.1;
  return cfg;
}

TEST(ExperimentRun, SweepRowEqualsRunUnderFaultPlan) {
  const testing_support::TempFile plan("experiment_run_plan.txt");
  {
    std::ofstream os(plan.path());
    os << "byzantine node=1 from=0 until=40 mode=fixed offset=500\n"
          "crash node=6 at=15\n"
          "recover node=6 at=30\n"
          "channel from=35 until=50 drop=0.1 jitter=0.2\n"
          "scramble node=9 at=60 magnitude=4\n";
  }
  cli::ExperimentConfig cfg;
  cfg.topology = "hypercube";
  cfg.dims = 4;
  cfg.algorithm = "ftgcs";
  cfg.drift = "square";
  cfg.delays = "band";
  cfg.duration = 120.0;
  cfg.faults_file = plan.path();
  expect_row_matches_run(cfg, 3);

  // The fault scheduler paced the run and applied the whole plan.
  auto built = cli::build_experiment(cfg);
  cli::ExperimentRun run(built, cfg, {});
  run.run();
  ASSERT_NE(run.faults(), nullptr);
  EXPECT_EQ(run.faults()->applied(), built.timeline.events.size());
  EXPECT_EQ(run.churn_driver(), nullptr);
  EXPECT_EQ(built.simulator->scrambles(), 1u);
}

TEST(ExperimentRun, SweepRowEqualsRunUnderChurn) {
  cli::ExperimentConfig cfg = churned_torus();
  cfg.duration = 60.0;
  expect_row_matches_run(cfg, 5);

  auto built = cli::build_experiment(cfg);
  cli::ExperimentRun run(built, cfg, {});
  run.run();
  ASSERT_NE(run.probe(), nullptr);
  ASSERT_NE(run.churn_driver(), nullptr);
  EXPECT_EQ(run.faults(), nullptr);
  EXPECT_GT(run.probe()->insertions(), 0u);
}

TEST(ExperimentRun, SweepRowEqualsRunOnStairBackend) {
  cli::ExperimentConfig cfg;
  cfg.topology = "grid";
  cfg.rows = 5;
  cfg.cols = 5;
  cfg.delays = "band";
  cfg.duration = 80.0;
  cfg.obs_backend = "stair";
  cfg.obs_memory_kb = 16;
  expect_row_matches_run(cfg, 9);
}

// A sweep row's derived seed replays through the parsed --seed flag, so
// the full 64-bit value must reach the run.  Row 0 of base seed 1 on this
// torus: 15,317 messages, global skew 0.9153.
TEST(ExperimentRun, SweepRowSeedReplaysThroughSeedFlag) {
  cli::ExperimentConfig base;
  base.topology = "torus";
  base.rows = 16;
  base.cols = 16;
  base.drift = "walk";
  base.delays = "band";
  base.band_min = 0.25;
  base.wake_all = true;
  base.duration = 100.0;
  exec::SweepOptions sopt;
  sopt.base_seed = 1;
  const exec::RunResult row =
      exec::SweepRunner::run_one(exec::RunSpec{base, {}}, 0, sopt);
  ASSERT_TRUE(row.ok) << row.error;
  ASSERT_EQ(row.seed, 16834447057089888969ULL);

  cli::ArgParser args({"--seed", std::to_string(row.seed)});
  cli::ExperimentConfig cfg = base;
  cli::apply_model_flags(args, cfg);
  ASSERT_TRUE(args.ok());
  auto built = cli::build_experiment(cfg);
  cli::ExperimentRun run(built, cfg, {});
  run.run();
  EXPECT_EQ(built.simulator->messages_delivered(), row.messages);
  EXPECT_EQ(run.tracker().max_global_skew(), row.global_skew);
  EXPECT_EQ(run.tracker().max_local_skew(), row.local_skew);
}

// The churn driver only paces (and, sharded, repartitions at interval
// boundaries): a driven churned run reports exactly the figures of the
// plain run_until run with the same observers.
TEST(ExperimentRun, ChurnDriverLeavesFiguresUnchanged) {
  for (const int shards : {0, 2}) {
    SCOPED_TRACE(testing::Message() << "shards=" << shards);
    cli::ExperimentConfig cfg = churned_torus();
    cfg.shards = shards;

    auto driven_built = cli::build_experiment(cfg);
    cli::ExperimentRun driven(driven_built, cfg, {});
    driven.run();
    ASSERT_NE(driven.churn_driver(), nullptr);
    // Sharded, the driver checks the live cut at every interval.
    EXPECT_EQ(driven.churn_driver()->checks() > 0, shards > 1);

    auto plain_built = cli::build_experiment(cfg);
    cli::ExperimentRun plain(plain_built, cfg, {});
    plain_built.simulator->run_until(cfg.duration);

    EXPECT_EQ(driven.tracker().max_global_skew(),
              plain.tracker().max_global_skew());
    EXPECT_EQ(driven.tracker().max_local_skew(),
              plain.tracker().max_local_skew());
    EXPECT_EQ(driven_built.simulator->events_processed(),
              plain_built.simulator->events_processed());
    EXPECT_EQ(driven_built.simulator->messages_delivered(),
              plain_built.simulator->messages_delivered());
    EXPECT_EQ(driven.probe()->stabilized(), plain.probe()->stabilized());
  }
}

}  // namespace
}  // namespace tbcs
