// Faults x churn composition: the adversary does not pause while the
// network changes shape.  A Byzantine node that leaves and rejoins must
// resume lying (the decorator is part of the node, not of its presence),
// channel windows must cover edges inserted after the window was
// declared (the fault policy is edge-agnostic by construction), and a
// run combining churn with a mixed fault plan must stay deterministic
// and engine-independent.
#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "cli/experiment_config.hpp"
#include "core/aopt.hpp"
#include "fault/fault_injection.hpp"
#include "fault/fault_scheduler.hpp"
#include "graph/topologies.hpp"
#include "sim/simulator.hpp"
#include "support/temp_file.hpp"

namespace tbcs::dyn {
namespace {

core::SyncParams params() {
  return core::SyncParams::recommended(1.0, 0.02, 0.3);
}

// A liar that leaves the network mid-run and rejoins later: the lies
// stop while it is gone (no sends) and resume as soon as it is back.
TEST(FaultsChurn, ByzantineNodeResumesLyingAfterRejoin) {
  const graph::Graph g = graph::make_ring(4);
  sim::SimConfig scfg;
  scfg.wake_all_at_zero = true;
  sim::Simulator sim(g, scfg);
  fault::ByzantineNode* liar = nullptr;
  sim.set_all_nodes([&](sim::NodeId v) -> std::unique_ptr<sim::Node> {
    auto n = std::make_unique<core::AoptNode>(params(), core::AoptOptions{});
    if (v != 1) return n;
    fault::ByzantineSpec spec;
    spec.node = v;
    spec.offset = 30.0;
    spec.random = false;
    auto wrapped =
        std::make_unique<fault::ByzantineNode>(std::move(n), spec, 5);
    wrapped->set_active(true);
    liar = wrapped.get();
    return wrapped;
  });
  sim.set_delay_policy(std::make_shared<sim::UniformDelay>(0.2, 1.0, 7));
  sim.schedule_node_leave(1, 30.0);
  sim.schedule_node_join(1, 60.0);

  sim.run_until(30.5);
  ASSERT_NE(liar, nullptr);
  const std::uint64_t lies_at_leave = liar->lies_told();
  EXPECT_GT(lies_at_leave, 0u);  // it was lying before it left

  sim.run_until(59.5);
  // Absent nodes do not send: the lie counter is frozen while gone.
  EXPECT_EQ(liar->lies_told(), lies_at_leave);

  sim.run_until(120.0);
  EXPECT_EQ(sim.leaves(), 1u);
  EXPECT_EQ(sim.joins(), 1u);
  // Back in the network, still active, still lying.
  EXPECT_GT(liar->lies_told(), lies_at_leave);
}

// A channel window declared before an edge exists still applies once the
// edge is inserted: windows gate on time, not on the edge set at parse
// time.  drop = 1.0 makes the claim sharp — nothing is ever delivered,
// and drops keep accruing after the insertion (when the inserted edge is
// the only edge there is).
TEST(FaultsChurn, ChannelWindowCoversInsertedEdge) {
  const graph::Graph g = graph::make_path(2);
  sim::SimConfig scfg;
  scfg.wake_all_at_zero = true;
  sim::Simulator sim(g, scfg);
  sim.set_all_nodes([&](sim::NodeId) {
    return std::make_unique<core::AoptNode>(params(), core::AoptOptions{});
  });
  fault::ChannelWindow w;
  w.t0 = 0.0;
  w.t1 = 500.0;
  w.drop = 1.0;
  auto channel = std::make_shared<fault::ChannelFaultPolicy>(
      std::make_shared<sim::UniformDelay>(0.2, 1.0, 7),
      std::vector<fault::ChannelWindow>{w}, 13);
  sim.set_delay_policy(channel);
  // The only edge leaves at t = 5 and is (re-)inserted at t = 50: from
  // the channel's point of view the post-50 edge is a fresh insertion
  // mid-window.
  sim.schedule_link_change(0, 1, false, 5.0);
  sim.schedule_link_change(0, 1, true, 50.0);

  sim.run_until(49.9);
  const std::uint64_t dropped_before_insert = channel->dropped();
  sim.run_until(200.0);
  EXPECT_GT(channel->dropped(), dropped_before_insert)
      << "window must keep dropping on the edge inserted at t=50";
  EXPECT_EQ(sim.messages_delivered(), 0u);  // drop=1.0 let nothing through
}

// End to end: node/edge churn AND a mixed fault plan (Byzantine windows,
// a channel window, a scramble) in the same ftgcs run — deterministic
// and byte-identical between the serial and sharded engines.
TEST(FaultsChurn, ChurnedChaosRunIsEngineIndependent) {
  const testing_support::TempFile plan("tbcs_churn_chaos.txt");
  {
    std::ofstream os(plan.path());
    os << "byzantine node=1 from=0 until=80 mode=fixed offset=200\n"
          "channel from=40 until=70 drop=0.2 jitter=0.3\n"
          "scramble node=7 at=100 magnitude=4\n";
  }
  cli::ExperimentConfig cfg;
  cfg.topology = "torus";
  cfg.rows = 5;
  cfg.cols = 5;
  cfg.algorithm = "ftgcs";
  cfg.ftgcs_f = 1;
  cfg.drift = "walk";
  cfg.delays = "band";
  cfg.duration = 150.0;
  cfg.seed = 20090817;
  cfg.wake_all = true;
  cfg.min_shard_nodes = 0;
  cfg.churn_node_rate = 0.01;
  cfg.churn_edge_rate = 0.01;
  cfg.churn_downtime = 10.0;
  cfg.churn_extra_edges = 0.2;
  cfg.churn_start = 5.0;
  cfg.churn_stop = 120.0;
  cfg.faults_file = plan.path();

  struct Out {
    std::vector<double> logical;
    std::uint64_t delivered = 0, dropped = 0, events = 0;
    std::uint64_t joins = 0, leaves = 0, scrambles = 0, applied = 0;
  };
  const auto run = [&cfg](int shards) {
    cli::ExperimentConfig c = cfg;
    c.shards = shards;
    auto built = cli::build_experiment(c);
    fault::FaultScheduler faults(built.timeline);
    faults.run(*built.simulator, c.duration);
    Out o;
    for (sim::NodeId v = 0; v < built.graph->num_nodes(); ++v) {
      o.logical.push_back(built.simulator->logical(v));
    }
    o.delivered = built.simulator->messages_delivered();
    o.dropped = built.simulator->messages_dropped();
    o.events = built.simulator->events_processed();
    o.joins = built.simulator->joins();
    o.leaves = built.simulator->leaves();
    o.scrambles = built.simulator->scrambles();
    o.applied = faults.applied();
    return o;
  };

  const Out serial = run(0);
  // Both mechanisms really ran: churn produced joins, the plan applied.
  EXPECT_GT(serial.joins + serial.leaves, 0u);
  EXPECT_EQ(serial.applied, 5u);  // byz on/off, channel on/off, scramble
  EXPECT_EQ(serial.scrambles, 1u);
  for (const int shards : {2, 4}) {
    SCOPED_TRACE(testing::Message() << "shards=" << shards);
    const Out sharded = run(shards);
    ASSERT_EQ(serial.logical.size(), sharded.logical.size());
    for (std::size_t v = 0; v < serial.logical.size(); ++v) {
      EXPECT_DOUBLE_EQ(serial.logical[v], sharded.logical[v])
          << "node " << v;
    }
    EXPECT_EQ(serial.delivered, sharded.delivered);
    EXPECT_EQ(serial.dropped, sharded.dropped);
    EXPECT_EQ(serial.events, sharded.events);
    EXPECT_EQ(serial.joins, sharded.joins);
    EXPECT_EQ(serial.leaves, sharded.leaves);
    EXPECT_EQ(serial.scrambles, sharded.scrambles);
    EXPECT_EQ(serial.applied, sharded.applied);
  }
}

}  // namespace
}  // namespace tbcs::dyn
