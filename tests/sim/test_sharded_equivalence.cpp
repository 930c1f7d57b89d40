// Sharded-vs-serial equivalence suite (the PR's core acceptance property).
//
// A sharded run must be *indistinguishable* from the serial run of the
// same experiment: same final logical clocks, same counters, same trace
// stream, same recorded execution.  Each case here builds one experiment
// through the production factory (cli::build_experiment), runs it serial
// and with --shards 1/2/3, and compares everything observable.
//
// The one sanctioned difference: queue peak_size.  The sharded engine
// reports a canonical pending-event count sampled at window barriers,
// which can under-read the serial per-pop peak; pushes/pops must still
// match exactly (every logical event is counted once on both engines).
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "analysis/skew_tracker.hpp"
#include "cli/experiment_config.hpp"
#include "dyn/stabilization_probe.hpp"
#include "fault/fault_injection.hpp"
#include "fault/fault_scheduler.hpp"
#include "graph/topologies.hpp"
#include "obs/flight_recorder.hpp"
#include "sim/delay_policy.hpp"
#include "sim/recorder.hpp"
#include "sim/simulator.hpp"
#include "support/temp_file.hpp"

namespace tbcs {
namespace {

struct RunOutput {
  std::vector<double> logical;  // final logical clock per node
  std::uint64_t broadcasts = 0;
  std::uint64_t delivered = 0;
  std::uint64_t dropped = 0;
  std::uint64_t events = 0;
  std::uint64_t crashes = 0;
  std::uint64_t recoveries = 0;
  std::uint64_t queue_pushes = 0;
  std::uint64_t queue_pops = 0;
  std::vector<obs::TraceRecord> trace;
  std::string record_bytes;  // canonicalized ExecutionLog, when recording
};

cli::ExperimentConfig base_config(const std::string& topology, int nodes) {
  cli::ExperimentConfig cfg;
  cfg.topology = topology;
  cfg.nodes = nodes;
  cfg.arity = 2;
  cfg.levels = 5;  // tree: 31 nodes
  cfg.rows = 6;    // grid: 24 nodes
  cfg.cols = 4;
  cfg.er_p = 0.15;
  cfg.algorithm = "aopt";
  cfg.drift = "walk";
  cfg.delays = "band";  // positive min delay: shardable lookahead
  cfg.duration = 120.0;
  cfg.seed = 20090817;
  cfg.wake_all = true;
  // These graphs sit below the production auto-clamp threshold (64 nodes
  // per lane); disable the clamp so multi-shard paths really run.
  cfg.min_shard_nodes = 0;
  return cfg;
}

// Runs one experiment end to end.  shards = 0 is the serial engine.
RunOutput run_case(cli::ExperimentConfig cfg, int shards,
                   bool record = false) {
  cfg.shards = shards;
  auto built = cli::build_experiment(cfg);
  sim::Simulator& sim = *built.simulator;

  auto log = std::make_shared<sim::ExecutionLog>();
  if (record) {
    sim.set_drift_policy(
        std::make_shared<sim::RecordingDriftPolicy>(built.drift, log));
    // Record outside any channel-fault decorator so the log captures the
    // delivered schedule, faults included.
    sim.set_delay_policy(std::make_shared<sim::RecordingDelayPolicy>(
        built.channel ? std::static_pointer_cast<sim::DelayPolicy>(built.channel)
                      : built.delay,
        log));
  }

  obs::FlightRecorder fr(obs::FlightRecorder::Options{1u << 20, 1});
  sim.set_flight_recorder(&fr);

  if (!built.timeline.empty()) {
    fault::FaultScheduler faults(built.timeline);
    faults.run(sim, cfg.duration);
  } else {
    sim.run_until(cfg.duration);
  }

  RunOutput out;
  for (sim::NodeId v = 0; v < built.graph->num_nodes(); ++v) {
    out.logical.push_back(sim.logical(v));
  }
  out.broadcasts = sim.broadcasts();
  out.delivered = sim.messages_delivered();
  out.dropped = sim.messages_dropped();
  out.events = sim.events_processed();
  out.crashes = sim.crashes();
  out.recoveries = sim.recoveries();
  out.queue_pushes = sim.queue_stats().pushes;
  out.queue_pops = sim.queue_stats().pops;
  out.trace = fr.snapshot();
  if (record) {
    std::ostringstream os;
    log->save(os);  // save() canonicalizes, so byte-compare is order-free
    out.record_bytes = os.str();
  }
  return out;
}

// Everything but aux must match record-for-record.  aux carries the event
// queue depth at dispatch, which is a per-lane quantity on the sharded
// engine (tbcs_trace --diff ignores it for the same reason).
void expect_same_trace(const std::vector<obs::TraceRecord>& a,
                       const std::vector<obs::TraceRecord>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE(testing::Message() << "record " << i);
    EXPECT_EQ(a[i].seq, b[i].seq);
    EXPECT_EQ(a[i].kind, b[i].kind);
    EXPECT_EQ(a[i].flags, b[i].flags);
    EXPECT_EQ(a[i].node, b[i].node);
    EXPECT_EQ(a[i].edge, b[i].edge);
    EXPECT_DOUBLE_EQ(a[i].t, b[i].t);
    EXPECT_DOUBLE_EQ(a[i].a, b[i].a);
    EXPECT_DOUBLE_EQ(a[i].b, b[i].b);
    if (testing::Test::HasFailure()) break;  // first divergence is enough
  }
}

void expect_equivalent(const RunOutput& serial, const RunOutput& sharded) {
  ASSERT_EQ(serial.logical.size(), sharded.logical.size());
  for (std::size_t v = 0; v < serial.logical.size(); ++v) {
    EXPECT_DOUBLE_EQ(serial.logical[v], sharded.logical[v]) << "node " << v;
  }
  EXPECT_EQ(serial.broadcasts, sharded.broadcasts);
  EXPECT_EQ(serial.delivered, sharded.delivered);
  EXPECT_EQ(serial.dropped, sharded.dropped);
  EXPECT_EQ(serial.events, sharded.events);
  EXPECT_EQ(serial.crashes, sharded.crashes);
  EXPECT_EQ(serial.recoveries, sharded.recoveries);
  EXPECT_EQ(serial.queue_pushes, sharded.queue_pushes);
  EXPECT_EQ(serial.queue_pops, sharded.queue_pops);
  expect_same_trace(serial.trace, sharded.trace);
}

class ShardedEquivalence : public testing::TestWithParam<const char*> {};

TEST_P(ShardedEquivalence, MatchesSerialAtEveryShardCount) {
  const cli::ExperimentConfig cfg = base_config(GetParam(), 24);
  const RunOutput serial = run_case(cfg, 0);
  for (const int shards : {1, 2, 4}) {
    SCOPED_TRACE(testing::Message() << "shards=" << shards);
    expect_equivalent(serial, run_case(cfg, shards));
  }
}

// Contiguous blocks on every topology (auto picks ml for the tree).
TEST_P(ShardedEquivalence, BlockPartitionMatchesToo) {
  cli::ExperimentConfig cfg = base_config(GetParam(), 24);
  cfg.partition = "block";
  expect_equivalent(run_case(cfg, 0), run_case(cfg, 3));
}

// The multilevel partition reshuffles node->shard assignments (non-
// contiguous blocks, KL-refined cuts); the run must still be identical.
TEST_P(ShardedEquivalence, MultilevelPartitionMatchesToo) {
  cli::ExperimentConfig cfg = base_config(GetParam(), 24);
  cfg.partition = "ml";
  const RunOutput serial = run_case(cfg, 0);
  for (const int shards : {2, 4}) {
    SCOPED_TRACE(testing::Message() << "shards=" << shards);
    expect_equivalent(serial, run_case(cfg, shards));
  }
}

INSTANTIATE_TEST_SUITE_P(Topologies, ShardedEquivalence,
                         testing::Values("path", "tree", "er", "grid"));

// Crash/recovery faults hit cut edges with twin link events; the sharded
// run must still replay the serial execution exactly, counters included.
TEST(ShardedEquivalenceFaults, FaultPlanMatchesSerial) {
  const testing_support::TempFile plan("tbcs_equiv_plan.txt");
  const std::string& path = plan.path();
  for (const char* topology : {"path", "er"}) {
    SCOPED_TRACE(topology);
    cli::ExperimentConfig cfg = base_config(topology, 24);
    cfg.faults_file = path;
    // The link directives must name a real edge of this topology; take
    // one from the middle of the edge list so it tends to cross shards.
    const graph::Graph g = cli::build_topology(cfg);
    const graph::Edge mid = g.edges()[g.edges().size() / 2];
    {
      std::ofstream os(path);
      os << "crash node=5 at=20\n"
            "recover node=5 at=45\n"
         << "link-down u=" << mid.first << " v=" << mid.second << " at=30\n"
         << "link-up u=" << mid.first << " v=" << mid.second << " at=60\n"
         << "channel from=70 until=90 drop=0.2 jitter=0.3\n";
    }
    const RunOutput serial = run_case(cfg, 0);
    EXPECT_EQ(serial.crashes, 1u);
    EXPECT_EQ(serial.recoveries, 1u);
    for (const int shards : {1, 2, 3}) {
      SCOPED_TRACE(testing::Message() << "shards=" << shards);
      expect_equivalent(serial, run_case(cfg, shards));
    }
  }
}

// Record on one engine, replay on the other: the execution log is
// engine-independent, and a replayed run reproduces the original clocks.
TEST(ShardedEquivalenceRecord, RecordReplayRoundTripsAcrossEngines) {
  const cli::ExperimentConfig cfg = base_config("path", 24);
  const RunOutput serial = run_case(cfg, 0, /*record=*/true);
  const RunOutput sharded = run_case(cfg, 3, /*record=*/true);
  expect_equivalent(serial, sharded);
  ASSERT_FALSE(serial.record_bytes.empty());
  EXPECT_EQ(serial.record_bytes, sharded.record_bytes)
      << "canonicalized execution logs must be byte-identical";

  // Replay the sharded recording on both engines.
  std::istringstream is(sharded.record_bytes);
  auto log = std::make_shared<const sim::ExecutionLog>(
      sim::ExecutionLog::load(is));
  for (const int shards : {0, 2}) {
    SCOPED_TRACE(testing::Message() << "replay shards=" << shards);
    cli::ExperimentConfig rcfg = cfg;
    rcfg.shards = shards;
    auto built = cli::build_experiment(rcfg);
    sim::Simulator& sim = *built.simulator;
    sim.set_drift_policy(std::make_shared<sim::ReplayDriftPolicy>(log));
    auto replay = std::make_shared<sim::ReplayDelayPolicy>(log);
    sim.set_delay_policy(replay);
    ASSERT_NO_THROW(sim.run_until(cfg.duration));
    EXPECT_EQ(replay->deliveries_matched(), log->deliveries.size());
    for (sim::NodeId v = 0; v < built.graph->num_nodes(); ++v) {
      EXPECT_DOUBLE_EQ(sim.logical(v), serial.logical[v])
          << "node " << v;
    }
  }
}

// The audit oracle runs the incremental engine and the full-rescan
// oracle side by side and throws on any divergence; it must accept a
// sharded run folding per-window touched sets exactly as it accepts the
// serial per-event feed.
// The ftgcs axis: the fault-tolerant node's defense layer (envelope
// filter, trimmed adoption, trimmed extrema) runs on the message hot
// path, so the equivalence suite exercises it with active liars — the
// rejections and trim votes must replay identically on every engine.
TEST(ShardedEquivalenceAlgos, FtGcsUnderLiarsMatchesSerial) {
  const testing_support::TempFile plan("tbcs_equiv_ftgcs_plan.txt");
  const std::string& path = plan.path();
  {
    std::ofstream os(path);
    os << "byzantine node=3 from=0 until=80 mode=fixed offset=500\n"
          "byzantine node=11 from=20 until=90 mode=random offset=40\n"
          "scramble node=7 at=100 magnitude=5\n";
  }
  for (const char* topology : {"path", "er"}) {
    SCOPED_TRACE(topology);
    cli::ExperimentConfig cfg = base_config(topology, 24);
    cfg.algorithm = "ftgcs";
    cfg.ftgcs_f = 1;
    cfg.faults_file = path;
    const RunOutput serial = run_case(cfg, 0);
    for (const int shards : {1, 2, 4}) {
      SCOPED_TRACE(testing::Message() << "shards=" << shards);
      expect_equivalent(serial, run_case(cfg, shards));
    }
  }
}

TEST(ShardedEquivalenceAudit, AuditOracleAcceptsShardedRuns) {
  for (const int shards : {0, 2}) {
    SCOPED_TRACE(testing::Message() << "shards=" << shards);
    cli::ExperimentConfig cfg = base_config("path", 24);
    cfg.shards = shards;
    auto built = cli::build_experiment(cfg);
    analysis::SkewTracker::Options topt;
    topt.mode = analysis::SkewTracker::Mode::kAuditOracle;
    topt.audit_epsilon = cfg.eps;
    analysis::SkewTracker tracker(*built.simulator, topt);
    dyn::attach_dyn_observers(*built.simulator, &tracker, nullptr);
    ASSERT_NO_THROW(built.simulator->run_until(cfg.duration));
    EXPECT_GT(tracker.max_global_skew(), 0.0);
  }
}

// The window observer feeds SkewTracker the per-window touched sets; the
// tracker's incremental extrema must agree with a full serial observe.
TEST(ShardedEquivalenceFaults, FaultFreeRunsHaveNoFaultCounters) {
  const cli::ExperimentConfig cfg = base_config("tree", 0);
  const RunOutput r = run_case(cfg, 2);
  EXPECT_EQ(r.crashes, 0u);
  EXPECT_EQ(r.recoveries, 0u);
  EXPECT_GT(r.delivered, 0u);
}

// An inner policy that certifies min_delay = 0.5 but draws below it.  The
// sharded engine trusts the certified bound when it opens windows, so
// ChannelFaultPolicy::plan_deliveries must clamp every planned copy —
// in-window and out, duplicates included — to send_time + bound instead
// of letting the bad draw cross a window barrier early.
TEST(ShardedEquivalenceFaults, ChannelClampsDeliveriesToCertifiedMinDelay) {
  class LyingDelay final : public sim::DelayPolicy {
   public:
    sim::RealTime delivery_time(sim::NodeId, sim::NodeId,
                                sim::RealTime send_time,
                                const sim::Simulator&) override {
      return send_time + 0.1;  // below the bound it certifies
    }
    sim::Duration min_delay() const override { return 0.5; }
  };

  const graph::Graph g = graph::make_path(2);
  sim::Simulator sim(g);
  auto inner = std::make_shared<LyingDelay>();
  // One window with jitter + guaranteed duplication, preceded and
  // followed by uncovered time, so all three planning paths run.
  std::vector<fault::ChannelWindow> windows(1);
  windows[0].t0 = 10.0;
  windows[0].t1 = 20.0;
  windows[0].jitter = 0.3;
  windows[0].duplicate = 1.0;
  fault::ChannelFaultPolicy channel(inner, windows, /*seed=*/99);
  channel.prepare(g.num_nodes());
  EXPECT_DOUBLE_EQ(channel.min_delay(), 0.5);
  EXPECT_DOUBLE_EQ(channel.min_delay(0, 1), 0.5);

  std::vector<sim::PlannedDelivery> out;
  for (const sim::RealTime send : {0.0, 12.0, 25.0}) {
    out.clear();
    channel.plan_deliveries(0, 1, send, sim, out);
    ASSERT_FALSE(out.empty()) << "send at " << send;
    for (const sim::PlannedDelivery& pd : out) {
      EXPECT_GE(pd.at, send + channel.min_delay(0, 1))
          << "send at " << send << ": delivery below the certified bound";
    }
  }
}

// ---- the touched-set contract -------------------------------------------
//
// At every observation barrier a window observer gets the nodes whose
// state changed since the previous barrier: ascending ids, one entry per
// node, `woke` set when any of its events initialized it.  The list is a
// pure function of the event set, so it must be the same at every shard
// count and equal to the list rebuilt from the serial engine's per-event
// stream by sorting, deduplicating and OR-ing the wake flags.

using TouchList = std::vector<std::pair<sim::NodeId, bool>>;
struct BarrierTouch {
  double t = 0.0;
  TouchList touched;
};

// A flood start on the path, a crash/recovery of node 6 (its link to node
// 5 crosses shards at --shards 4) and two flips of the link {11, 12}
// (which crosses shards at --shards 2 and 4): primary and twin link events
// in different lanes, wakes, and nodes leaving and re-entering the set.
cli::ExperimentConfig touch_contract_config() {
  cli::ExperimentConfig cfg = base_config("path", 24);
  cfg.wake_all = false;
  return cfg;
}

void schedule_touch_contract_faults(sim::Simulator& sim) {
  sim.schedule_crash(6, 20.0);
  sim.schedule_recovery(6, 45.0);
  sim.schedule_link_change(11, 12, false, 30.0);
  sim.schedule_link_change(11, 12, true, 60.0);
}

std::vector<BarrierTouch> window_touch_lists(int shards) {
  cli::ExperimentConfig cfg = touch_contract_config();
  cfg.shards = shards;
  auto built = cli::build_experiment(cfg);
  sim::Simulator& sim = *built.simulator;
  if (shards >= 2) {
    const graph::Partition& part = *sim.partition();
    EXPECT_NE(part.shard_of(11), part.shard_of(12)) << "{11, 12} not cut";
  }
  std::vector<BarrierTouch> out;
  sim.set_window_observer(
      [&out](const sim::Simulator&, sim::RealTime t,
             const std::vector<sim::Simulator::WindowTouch>& touched) {
        BarrierTouch b;
        b.t = t;
        for (const auto& w : touched) b.touched.emplace_back(w.node, w.woke);
        out.push_back(std::move(b));
      });
  schedule_touch_contract_faults(sim);
  sim.run_until(cfg.duration);
  return out;
}

// The serial engine's observable events, grouped at the given barrier
// times: a barrier at t closes the half-open window before it, and the
// last barrier (the run horizon) also takes the events at exactly t.
std::vector<TouchList> serial_touch_lists(const std::vector<double>& barriers) {
  const cli::ExperimentConfig cfg = touch_contract_config();
  auto built = cli::build_experiment(cfg);
  sim::Simulator& sim = *built.simulator;
  struct Touch {
    double t;
    sim::NodeId node;
    bool woke;
  };
  std::vector<Touch> stream;
  sim.set_observer([&stream](const sim::Simulator& s, sim::RealTime t) {
    const sim::Simulator::LastEvent& le = s.last_event();
    if (le.node != sim::kInvalidNode) stream.push_back({t, le.node, le.woke});
    if (le.node2 != sim::kInvalidNode) stream.push_back({t, le.node2, false});
  });
  schedule_touch_contract_faults(sim);
  sim.run_until(cfg.duration);

  std::vector<TouchList> lists;
  std::size_t next = 0;
  for (std::size_t i = 0; i < barriers.size(); ++i) {
    const bool last = i + 1 == barriers.size();
    std::vector<std::pair<sim::NodeId, bool>> raw;
    while (next < stream.size() &&
           (last || stream[next].t < barriers[i])) {
      raw.emplace_back(stream[next].node, stream[next].woke);
      ++next;
    }
    // Woke entries first within a node, so unique keeps the OR.
    std::sort(raw.begin(), raw.end(), [](const auto& a, const auto& b) {
      return a.first != b.first ? a.first < b.first : a.second > b.second;
    });
    raw.erase(std::unique(raw.begin(), raw.end(),
                          [](const auto& a, const auto& b) {
                            return a.first == b.first;
                          }),
              raw.end());
    lists.push_back(std::move(raw));
  }
  EXPECT_EQ(next, stream.size()) << "serial events after the last barrier";
  return lists;
}

TEST(ShardedTouchContract, BarrierListsMatchAcrossShardCountsAndSerial) {
  const std::vector<BarrierTouch> one = window_touch_lists(1);
  ASSERT_GT(one.size(), 10u);
  std::vector<double> times;
  bool saw_wake = false;
  for (const BarrierTouch& b : one) {
    times.push_back(b.t);
    for (const auto& w : b.touched) saw_wake |= w.second;
  }
  EXPECT_TRUE(saw_wake) << "the flood start must report woken nodes";

  const std::vector<TouchList> reference = serial_touch_lists(times);
  ASSERT_EQ(reference.size(), one.size());
  for (std::size_t i = 0; i < one.size(); ++i) {
    SCOPED_TRACE(testing::Message() << "barrier " << i << " t=" << one[i].t);
    EXPECT_EQ(one[i].touched, reference[i]);
  }
  for (const int shards : {2, 4}) {
    SCOPED_TRACE(testing::Message() << "shards=" << shards);
    const std::vector<BarrierTouch> lists = window_touch_lists(shards);
    ASSERT_EQ(lists.size(), one.size());
    for (std::size_t i = 0; i < lists.size(); ++i) {
      SCOPED_TRACE(testing::Message() << "barrier " << i);
      EXPECT_EQ(lists[i].t, one[i].t);
      EXPECT_EQ(lists[i].touched, one[i].touched);
    }
  }
}

// Requesting more shards than the clamp allows must fall back to a
// smaller effective count (here 1: 24 nodes < 2 * 64) while remembering
// what was asked for — and the run still matches serial output.
TEST(ShardedEquivalenceClamp, AutoClampShrinksTinyRuns) {
  cli::ExperimentConfig cfg = base_config("path", 24);
  cfg.min_shard_nodes = 64;  // the production default
  cfg.shards = 4;
  auto built = cli::build_experiment(cfg);
  EXPECT_EQ(built.simulator->shards(), 1);
  EXPECT_EQ(built.simulator->shards_requested(), 4);
  // The CLI default "auto" resolves to a concrete strategy before it is
  // reported: a path has m == n - 1, so it routes to the tree-friendly
  // multilevel partitioner.
  EXPECT_EQ(built.simulator->partition_strategy(), "ml");

  // min_shard_nodes = 24 admits exactly one lane of 24; = 12 admits 2.
  cfg.min_shard_nodes = 12;
  auto built2 = cli::build_experiment(cfg);
  EXPECT_EQ(built2.simulator->shards(), 2);
  EXPECT_EQ(built2.simulator->shards_requested(), 4);

  const RunOutput serial = run_case(base_config("path", 24), 0);
  cli::ExperimentConfig clamped = base_config("path", 24);
  clamped.min_shard_nodes = 12;
  expect_equivalent(serial, run_case(clamped, 4));
}

}  // namespace
}  // namespace tbcs
