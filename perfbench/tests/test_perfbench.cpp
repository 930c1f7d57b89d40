// Tests of the benchmark's own code: decorator pass-through, self-time
// subtraction, the percentile helpers and failure accounting.
#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <optional>
#include <string>

#include "exec/sweep_runner.hpp"
#include "report.hpp"
#include "runner.hpp"
#include "tracer.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

tbcs::cli::ExperimentConfig small_grid() {
  tbcs::cli::ExperimentConfig c;
  c.topology = "grid";
  c.rows = 6;
  c.cols = 6;
  c.delays = "uniform";
  c.duration = 80.0;
  c.seed = 7;
  return c;
}

RunOptions traced(bool on) {
  RunOptions o;
  o.traced = on;
  o.sample_shift = 0;  // time every span: exercises every decorator path
  o.audit_epsilon = 0.01;
  return o;
}

TEST(DecoratorPassThrough, SerialFingerprintUnchanged) {
  const auto cfg = small_grid();
  const RunOutcome plain = run_experiment(cfg, traced(false));
  const RunOutcome timed = run_experiment(cfg, traced(true));
  EXPECT_EQ(plain.fp, timed.fp) << plain.fp.to_json() << "\n" << timed.fp.to_json();
  EXPECT_GT(plain.fp.events, 1000u);
  EXPECT_TRUE(plain.failures.empty());
  // The traced run really went through the decorators.
  EXPECT_GT(timed.spans[static_cast<int>(SpanKind::kHandler)].calls, 0u);
  EXPECT_GT(timed.spans[static_cast<int>(SpanKind::kBroadcast)].calls, 0u);
  EXPECT_GT(timed.spans[static_cast<int>(SpanKind::kTimer)].calls, 0u);
  EXPECT_GT(timed.spans[static_cast<int>(SpanKind::kDelay)].calls, 0u);
  EXPECT_GT(timed.spans[static_cast<int>(SpanKind::kDrift)].calls, 0u);
  EXPECT_GT(timed.spans[static_cast<int>(SpanKind::kObserve)].calls, 0u);
}

TEST(DecoratorPassThrough, TwoLaneFingerprintUnchanged) {
  auto cfg = small_grid();
  cfg.topology = "path";
  cfg.nodes = 64;
  cfg.wake_all = true;
  cfg.delays = "band";
  cfg.band_min = 0.25;
  cfg.shards = 2;
  cfg.min_shard_nodes = 0;
  cfg.algorithm = "ftgcs";
  cfg.obs_backend = "stair";
  const RunOutcome plain = run_experiment(cfg, traced(false));
  const RunOutcome timed = run_experiment(cfg, traced(true));
  ASSERT_EQ(plain.lanes, 2);
  EXPECT_EQ(plain.fp, timed.fp) << plain.fp.to_json() << "\n" << timed.fp.to_json();
  EXPECT_GT(timed.spans[static_cast<int>(SpanKind::kHandler)].calls, 0u);
}

TEST(DecoratorPassThrough, ByzantineReplicaMatchesRunOne) {
  const std::string plan = testing::TempDir() + "/perfbench_test_byz.plan";
  {
    std::ofstream f(plan);
    f << "byzantine node=4 from=20 until=60 mode=random offset=2\n";
  }
  tbcs::exec::RunSpec spec;
  spec.config.topology = "ring";
  spec.config.nodes = 16;
  spec.config.algorithm = "ftgcs";
  spec.config.duration = 80.0;
  spec.config.faults_file = plan;
  tbcs::exec::SweepOptions sopt;
  sopt.base_seed = 3;
  const tbcs::exec::RunResult r = tbcs::exec::SweepRunner::run_one(spec, 0, sopt);
  ASSERT_TRUE(r.ok) << r.error;
  auto cfg = spec.config;
  cfg.seed = r.seed;
  RunOptions ro = traced(true);
  ro.wiring = Wiring::kSweep;
  ro.audit_epsilon = 0.0;
  const RunOutcome replica = run_experiment(cfg, ro);
  EXPECT_TRUE(same_as_run_result(replica.fp, r)) << replica.fp.to_json();
  EXPECT_EQ(replica.faults_applied, replica.timeline_events);
}

TEST(SelfTime, ChildSpansAreSubtracted) {
  SpanStack st(0);
  // handler [0, 100] { broadcast [10, 60] { delay [20, 30], delay [35, 45] },
  //                    timer [70, 80] }
  ASSERT_TRUE(st.open(SpanKind::kHandler));
  st.set_start(0);
  st.open(SpanKind::kBroadcast);
  st.set_start(10);
  st.open(SpanKind::kDelay);
  st.set_start(20);
  st.close(30);
  st.open(SpanKind::kDelay);
  st.set_start(35);
  st.close(45);
  st.close(60);
  st.open(SpanKind::kTimer);
  st.set_start(70);
  st.close(80);
  st.close(100);
  ASSERT_EQ(st.depth(), 0);
  const SpanTable& t = st.totals();
  EXPECT_DOUBLE_EQ(t[static_cast<int>(SpanKind::kHandler)].self_ns, 40.0);
  EXPECT_DOUBLE_EQ(t[static_cast<int>(SpanKind::kHandler)].incl_ns, 100.0);
  EXPECT_DOUBLE_EQ(t[static_cast<int>(SpanKind::kBroadcast)].self_ns, 30.0);
  EXPECT_DOUBLE_EQ(t[static_cast<int>(SpanKind::kDelay)].self_ns, 20.0);
  EXPECT_EQ(t[static_cast<int>(SpanKind::kDelay)].calls, 2u);
  EXPECT_DOUBLE_EQ(t[static_cast<int>(SpanKind::kTimer)].self_ns, 10.0);
  // Only the handler is top-level.
  EXPECT_DOUBLE_EQ(t[static_cast<int>(SpanKind::kHandler)].top_ns, 100.0);
  EXPECT_EQ(t[static_cast<int>(SpanKind::kBroadcast)].top_calls, 0u);
}

TEST(SelfTime, SamplingTimesWholeTreesAndScales) {
  SpanStack st(2);  // one top-level span in 4, drawn pseudo-randomly
  double now = 0;
  int timed = 0;
  constexpr int kCalls = 4000;
  for (int i = 0; i < kCalls; ++i) {
    const bool t = st.open(SpanKind::kHandler);
    timed += t ? 1 : 0;
    st.set_start(now);
    // A child inherits its parent's decision.
    EXPECT_EQ(st.open(SpanKind::kTimer), t);
    st.set_start(now + 1);
    st.close(now + 3);
    st.close(now + 10);
    now += 10;
  }
  EXPECT_GT(timed, kCalls / 4 - 150);
  EXPECT_LT(timed, kCalls / 4 + 150);
  const SpanTotals& h = st.totals()[static_cast<int>(SpanKind::kHandler)];
  const SpanTotals& tm = st.totals()[static_cast<int>(SpanKind::kTimer)];
  EXPECT_EQ(h.calls, static_cast<std::uint64_t>(kCalls));
  EXPECT_EQ(h.sampled, static_cast<std::uint64_t>(timed));
  EXPECT_EQ(tm.calls, static_cast<std::uint64_t>(kCalls));
  EXPECT_EQ(tm.sampled, static_cast<std::uint64_t>(timed));
  // Scaled from the sample to every call.
  EXPECT_DOUBLE_EQ(h.est_self_ns(), kCalls * 8.0);
  EXPECT_DOUBLE_EQ(tm.est_self_ns(), kCalls * 2.0);
  EXPECT_DOUBLE_EQ(h.est_top_ns(), kCalls * 10.0);
}

TEST(Percentile, InterpolatesBetweenRanks) {
  const std::vector<double> v = {5, 1, 4, 2, 3};
  EXPECT_DOUBLE_EQ(percentile(v, 50), 3.0);
  EXPECT_DOUBLE_EQ(percentile(v, 25), 2.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100), 5.0);
  EXPECT_DOUBLE_EQ(percentile({1, 2}, 50), 1.5);
  EXPECT_DOUBLE_EQ(median({7}), 7.0);
  EXPECT_TRUE(std::isnan(percentile({}, 50)));
}

TEST(Percentile, TailKeepsTenSamplesBeyond) {
  std::vector<double> v;
  for (int i = 1; i <= 19; ++i) v.push_back(i);
  EXPECT_DOUBLE_EQ(tail_percentile(v).p, 50.0);  // p75 leaves only 4.75
  for (int i = 20; i <= 40; ++i) v.push_back(i);
  EXPECT_DOUBLE_EQ(tail_percentile(v).p, 75.0);  // 40 * 0.25 = 10
  for (int i = 41; i <= 100; ++i) v.push_back(i);
  EXPECT_DOUBLE_EQ(tail_percentile(v).p, 90.0);  // 100 * 0.10 = 10
  EXPECT_DOUBLE_EQ(tail_percentile(v).value, percentile(v, 90.0));
  std::vector<double> big(1000, 1.0);
  EXPECT_DOUBLE_EQ(tail_percentile(big).p, 99.0);
}

TEST(FailedShare, CountsEveryFailingRun) {
  Record rec;
  std::optional<Fingerprint> ref;
  RunOutcome ok;
  ok.fp.events = 10;
  check_run(rec, ok, ref, "untraced");
  RunOutcome bound_broken = ok;
  bound_broken.failures.push_back("local skew exceeds bound");
  check_run(rec, bound_broken, ref, "untraced");
  RunOutcome diverged = ok;
  diverged.fp.events = 11;
  check_run(rec, diverged, ref, "traced");
  check_run(rec, ok, ref, "untraced");
  EXPECT_EQ(rec.attempted, 4u);
  EXPECT_EQ(rec.failed, 2u);
  ASSERT_EQ(rec.failures.size(), 2u);
  EXPECT_NE(rec.failures[1].find("differs"), std::string::npos);
}

TEST(FailedShare, SweepCountsBrokenRuns) {
  // A spec whose fault plan is missing fails inside run_one; its pass is
  // counted, and a pass that diverges from the first is counted too.
  const std::string plan = testing::TempDir() + "/perfbench_test_crash.plan";
  {
    std::ofstream f(plan);
    f << "crash node=5 at=30\nrecover node=5 at=60\n";
  }
  std::vector<tbcs::exec::RunSpec> specs(2);
  for (auto& s : specs) {
    s.config.topology = "ring";
    s.config.nodes = 16;
    s.config.algorithm = "ftgcs";
    s.config.duration = 80.0;
    s.labels = {{"n", "16"}};
  }
  specs[0].config.faults_file = plan;
  specs[1].config.faults_file = testing::TempDir() + "/perfbench_missing.plan";
  tbcs::exec::SweepOptions sopt;
  sopt.base_seed = 5;
  const auto results = tbcs::exec::SweepRunner(sopt).run(specs);
  SweepExpectation expect{{2, 0}};
  Record rec;
  std::vector<tbcs::exec::RunResult> reference;
  check_sweep(rec, specs, results, expect, reference);
  EXPECT_EQ(rec.attempted, 2u);
  EXPECT_EQ(rec.failed, 1u);

  auto changed = results;
  changed[0].global_skew += 1e-9;
  check_sweep(rec, specs, changed, expect, reference);
  EXPECT_EQ(rec.attempted, 4u);
  EXPECT_EQ(rec.failed, 3u);

  SweepExpectation wrong{{3, 0}};
  Record rec2;
  std::vector<tbcs::exec::RunResult> ref2;
  check_sweep(rec2, specs, results, wrong, ref2);
  EXPECT_EQ(rec2.failed, 2u);  // faults applied != timeline length
}

}  // namespace
}  // namespace perfbench
