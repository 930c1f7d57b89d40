// Ladder-vs-heap differential suite.
//
// The ladder queue replaced a 4-ary heap as the simulator's one event
// queue, and it must replay the heap's runs exactly: same final logical
// clocks, same canonical counters, same trace stream, same recorded
// execution — on the serial engine and on every shard count.  While both
// queues shipped, each case below was run under the heap and digested
// (tests/support/run_digest.hpp); the digests are pinned here, and every
// run must reproduce its case's digest.  A mismatch means the pop order,
// or something downstream of it, changed.
#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>

#include "cli/experiment_config.hpp"
#include "fault/fault_scheduler.hpp"
#include "obs/flight_recorder.hpp"
#include "sim/recorder.hpp"
#include "sim/simulator.hpp"
#include "support/run_digest.hpp"
#include "support/temp_file.hpp"

namespace tbcs {
namespace {

using testing_support::RunDigest;

cli::ExperimentConfig base_config(const std::string& topology) {
  cli::ExperimentConfig cfg;
  cfg.topology = topology;
  cfg.nodes = 24;
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
  cfg.min_shard_nodes = 0;  // let multi-shard paths really run at n=24
  return cfg;
}

struct RunOutput {
  std::string digest;
  std::uint64_t crashes = 0;
  std::size_t record_bytes = 0;
};

RunOutput run_case(cli::ExperimentConfig cfg, int shards,
                   bool record = false) {
  cfg.shards = shards;
  auto built = cli::build_experiment(cfg);
  sim::Simulator& sim = *built.simulator;

  auto log = std::make_shared<sim::ExecutionLog>();
  if (record) {
    sim.set_drift_policy(
        std::make_shared<sim::RecordingDriftPolicy>(built.drift, log));
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

  RunDigest d;
  for (sim::NodeId v = 0; v < built.graph->num_nodes(); ++v) {
    d.add(sim.logical(v));
  }
  d.add(sim.broadcasts()).add(sim.messages_delivered());
  d.add(sim.messages_dropped()).add(sim.events_processed());
  d.add(sim.crashes()).add(sim.recoveries());
  d.add(sim.queue_stats().pushes).add(sim.queue_stats().pops);
  d.add(sim.timer_arms()).add(sim.timer_fires()).add(sim.timer_cancels());
  d.add(fr.snapshot());
  RunOutput out;
  if (record) {
    std::ostringstream os;
    log->save(os);
    out.record_bytes = os.str().size();
    d.add(os.str());
  }
  out.digest = d.hex();
  out.crashes = sim.crashes();
  return out;
}

// Heap-run digests, one per case: the heap run gave the same digest at
// every shard count tried (the sharded engines replay the serial run).
const std::map<std::string, std::string> kHeapDigests = {
    {"path", "25a9ca5d65c3b955"},
    {"tree", "16e95a4e0d6382a4"},
    {"er", "2b343ea8b0e8ffb6"},
    {"grid", "26ccd44f36f47ff4"},
    {"faults-path", "1d4e09081be390c7"},
    {"faults-tree", "3737c5fd417de2ca"},
    {"record-er", "e4a1493716671477"},
};

void expect_heap_digest(const std::string& name, int shards,
                        const RunOutput& run) {
  EXPECT_EQ(run.digest, kHeapDigests.at(name))
      << "digest of " << name << " @ shards=" << shards;
}

class QueueDifferential : public testing::TestWithParam<const char*> {};

// Serial and sharded {1, 2, 4}: each run replays the heap run exactly.
TEST_P(QueueDifferential, LadderMatchesHeapAtEveryShardCount) {
  const cli::ExperimentConfig cfg = base_config(GetParam());
  for (const int shards : {0, 1, 2, 4}) {
    expect_heap_digest(GetParam(), shards, run_case(cfg, shards));
  }
}

INSTANTIATE_TEST_SUITE_P(Topologies, QueueDifferential,
                         testing::Values("path", "tree", "er", "grid"));

// Crash/recovery + link flaps + a lossy channel window: cancels, twin link
// events, and suppressed timers all go through the queue.
TEST(QueueDifferentialFaults, FaultPlanMatchesAcrossImpls) {
  const testing_support::TempFile plan("tbcs_queue_diff_plan.txt");
  const std::string& path = plan.path();
  for (const char* topology : {"path", "tree"}) {
    cli::ExperimentConfig cfg = base_config(topology);
    cfg.faults_file = path;
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
    for (const int shards : {0, 2}) {
      const RunOutput run = run_case(cfg, shards);
      EXPECT_EQ(run.crashes, 1u);
      expect_heap_digest(std::string("faults-") + topology, shards, run);
    }
  }
}

// The canonicalized execution record replays the heap's byte for byte,
// serial and sharded alike.
TEST(QueueDifferentialRecord, RecordsAreByteIdenticalAcrossImpls) {
  const cli::ExperimentConfig cfg = base_config("er");
  for (const int shards : {0, 3}) {
    const RunOutput run = run_case(cfg, shards, /*record=*/true);
    EXPECT_GT(run.record_bytes, 0u);
    expect_heap_digest("record-er", shards, run);
  }
}

}  // namespace
}  // namespace tbcs
