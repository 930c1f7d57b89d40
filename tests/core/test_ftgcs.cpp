// FtGcsNode: the Byzantine-resilient estimate layer over A^opt.
//
// Key properties: with every defense off the node is bit-identical to
// plain A^opt (fault-free and under a fault plan); the drift-envelope
// filter rejects provably-faulty jumps but never fires on honest
// traffic; the f-trimmed extrema and vouched adoption keep the correct
// subgraph bounded where A^opt is dragged to the rail; and the
// wake-bootstrap goes through the same gatekeepers as every other
// report, so a Byzantine wake-flood cannot seed arbitrary state.
#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "analysis/skew_tracker.hpp"
#include "cli/experiment_config.hpp"
#include "core/aopt.hpp"
#include "core/ftgcs.hpp"
#include "fault/fault_injection.hpp"
#include "fault/fault_scheduler.hpp"
#include "graph/topologies.hpp"
#include "sim/simulator.hpp"
#include "support/temp_file.hpp"

namespace tbcs::core {
namespace {

cli::ExperimentConfig base_config() {
  cli::ExperimentConfig cfg;
  cfg.topology = "hypercube";
  cfg.dims = 4;
  cfg.algorithm = "aopt";
  cfg.drift = "square";
  cfg.delays = "band";
  cfg.duration = 80.0;
  cfg.seed = 11;
  cfg.wake_all = true;
  return cfg;
}

std::vector<double> final_clocks(const cli::ExperimentConfig& cfg) {
  auto built = cli::build_experiment(cfg);
  if (!built.timeline.empty()) {
    fault::FaultScheduler faults(built.timeline);
    faults.run(*built.simulator, cfg.duration);
  } else {
    built.simulator->run_until(cfg.duration);
  }
  std::vector<double> out;
  for (sim::NodeId v = 0; v < built.graph->num_nodes(); ++v) {
    out.push_back(built.simulator->logical(v));
  }
  return out;
}

// With the filter and the trim both off, every virtual hook falls through
// to the base implementation: the runs must agree to the last bit.
TEST(FtGcs, ReducesToAoptWithDefensesOff) {
  cli::ExperimentConfig aopt = base_config();
  cli::ExperimentConfig ft = base_config();
  ft.algorithm = "ftgcs";
  ft.ftgcs_f = 0;
  ft.ftgcs_filter = "none";
  const auto a = final_clocks(aopt);
  const auto b = final_clocks(ft);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t v = 0; v < a.size(); ++v) {
    EXPECT_DOUBLE_EQ(a[v], b[v]) << "node " << v;
  }
}

// The reduction must survive an active fault plan (Byzantine windows,
// crash/recovery, a scramble): the defense hooks sit on the exact paths
// the faults exercise.
TEST(FtGcs, ReducesToAoptUnderFaultsToo) {
  const testing_support::TempFile plan("tbcs_ftgcs_reduction.txt");
  {
    std::ofstream os(plan.path());
    os << "byzantine node=1 from=10 until=40 mode=fixed offset=25\n"
          "crash node=5 at=20\n"
          "recover node=5 at=35\n"
          "scramble node=3 at=50 magnitude=4\n";
  }
  cli::ExperimentConfig aopt = base_config();
  aopt.faults_file = plan.path();
  cli::ExperimentConfig ft = aopt;
  ft.algorithm = "ftgcs";
  ft.ftgcs_f = 0;
  ft.ftgcs_filter = "none";
  const auto a = final_clocks(aopt);
  const auto b = final_clocks(ft);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t v = 0; v < a.size(); ++v) {
    EXPECT_DOUBLE_EQ(a[v], b[v]) << "node " << v;
  }
}

struct FtFixture {
  explicit FtFixture(graph::Graph graph, const FtGcsOptions& ft,
                     sim::NodeId liar = sim::kInvalidNode,
                     double offset = 0.0, bool wake_all = true)
      : g(std::move(graph)) {
    const SyncParams p = SyncParams::recommended(1.0, 0.02, 0.3);
    sim::SimConfig cfg;
    cfg.wake_all_at_zero = wake_all;
    sim = std::make_unique<sim::Simulator>(g, cfg);
    sim->set_all_nodes([&](sim::NodeId v) -> std::unique_ptr<sim::Node> {
      auto n = std::make_unique<FtGcsNode>(p, AoptOptions{}, ft);
      nodes.push_back(n.get());
      if (v == liar) {
        fault::ByzantineSpec spec;
        spec.node = v;
        spec.offset = offset;
        spec.random = false;
        auto wrapped = std::make_unique<fault::ByzantineNode>(std::move(n),
                                                              spec, 99);
        wrapped->set_active(true);
        byz = wrapped.get();
        return wrapped;
      }
      return n;
    });
    sim->set_delay_policy(std::make_shared<sim::UniformDelay>(0.2, 1.0, 7));
  }
  graph::Graph g;
  std::unique_ptr<sim::Simulator> sim;
  std::vector<FtGcsNode*> nodes;  // inner nodes, index = node id
  fault::ByzantineNode* byz = nullptr;
};

// Honest traffic never trips the envelope filter: rejecting a correct
// report would break the liveness the paper's estimate layer relies on.
TEST(FtGcs, FaultFreeRunFiltersNothing) {
  FtFixture f(graph::make_ring(8), FtGcsOptions{});
  f.sim->run_until(60.0);
  for (const FtGcsNode* n : f.nodes) {
    EXPECT_EQ(n->filtered_reports(), 0u);
    EXPECT_EQ(n->tracked_credentials(), 2u);
  }
}

// A neighbor with an honest history that suddenly reports a clock above
// its certified envelope is provably faulty; the whole message must be
// discarded, and the victim's own clock must stay near the honest pack.
TEST(FtGcs, EnvelopeFilterRejectsProvablyFaultyJumps) {
  // The liar starts honest (anchoring its certificate truthfully) —
  // set_active below flips it to lying mid-run, which is the jump the
  // filter is built to catch.
  FtFixture f(graph::make_star(5), FtGcsOptions{}, /*liar=*/1,
              /*offset=*/1e6);
  f.byz->set_active(false);
  f.sim->run_until(20.0);
  f.byz->set_active(true);
  f.sim->run_until(120.0);

  const FtGcsNode* center = f.nodes[0];
  EXPECT_GT(center->filtered_reports(), 0u);
  // The center keeps tracking honest leaves; its clock stays in the pack.
  double honest_max = 0.0;
  for (sim::NodeId v = 2; v < 5; ++v) {
    honest_max = std::max(honest_max, f.sim->logical(v));
  }
  EXPECT_LT(f.sim->logical(0), honest_max + 10.0);
}

// The estimate ratchet (raw_max guard) ignores lies *below* the last
// report, so a down-liar must lie from first contact; the envelope
// filter must not let that history launder into an up-lie later.
TEST(FtGcs, FilterIsRatchetFree) {
  FtFixture f(graph::make_star(5), FtGcsOptions{}, /*liar=*/1, /*offset=*/40.0);
  f.byz->set_active(false);
  f.sim->run_until(30.0);
  const FtGcsNode* center = f.nodes[0];
  const std::uint64_t before = center->filtered_reports();
  f.byz->set_active(true);
  f.sim->run_until(90.0);
  // Every lying report after the honest anchor is above the envelope:
  // rejected for the whole window, not just once.
  EXPECT_GT(center->filtered_reports(), before + 5);
}

// f-trimmed extrema: with f = 1 and a single liar pinned 40 ahead, the
// correct subgraph must stay bounded near the honest diameter figure.
TEST(FtGcs, TrimKeepsCorrectSubgraphBounded) {
  FtGcsOptions ft;
  ft.f = 1;
  FtFixture f(graph::make_ring(8), ft, /*liar=*/0, /*offset=*/40.0);
  f.sim->run_until(200.0);
  double lo = sim::kInfinity;
  double hi = -sim::kInfinity;
  for (sim::NodeId v = 1; v < 8; ++v) {
    const double L = f.sim->logical(v);
    lo = std::min(lo, L);
    hi = std::max(hi, L);
  }
  // Far below the 40 the liar advertises; the honest bound here is O(kappa
  // * D) ~ a few units.
  EXPECT_LT(hi - lo, 10.0);
  // And the trimmed extrema are what the rate rule saw: with one liar
  // parked ahead, the trimmed up-skew must not track the lie.
  for (sim::NodeId v = 1; v < 8; ++v) {
    EXPECT_LE(f.nodes[v]->lambda_up_trimmed(),
              f.nodes[v]->lambda_up() + 1e-9);
  }
}

// A node woken *by* a Byzantine message must not bootstrap its state from
// the lie: the on_wake adoption goes through accept_report/adopt_lmax
// like any other report, and with trimming on a single first-contact
// voucher cannot move L^max at all.
TEST(FtGcs, WakeBootstrapIsGated) {
  FtGcsOptions ft;
  ft.f = 1;
  // wake_all = false: only node 0 (the liar) wakes at t = 0; every other
  // node is woken by a message — the bootstrap path under test.
  FtFixture f(graph::make_path(3), ft, /*liar=*/0, /*offset=*/1e6,
              /*wake_all=*/false);
  f.sim->run_until(40.0);
  const double h1 = f.sim->hardware(1);
  // Node 1 was woken by a lying first contact.  Ungated, its L^max jumps
  // to ~1e6 and it rides there forever; gated, the lie can cost at most
  // one of the trim's discard slots.
  EXPECT_LT(f.nodes[1]->logical_max_at(h1), 1e3);
  EXPECT_LT(f.sim->logical(1), 1e3);
}

// A scramble must corrupt the defense layer too (credentials are state),
// and the node must climb back out: after the corruption washes out, the
// filter stops rejecting honest traffic and skew re-enters the envelope.
TEST(FtGcs, ScrambleCorruptsCredsAndRecovers) {
  FtGcsOptions ft;
  ft.f = 1;
  FtFixture f(graph::make_ring(6), ft);
  f.sim->run_until(30.0);
  f.sim->schedule_scramble(2, 30.0, /*seed=*/77, /*magnitude=*/5.0);
  f.sim->run_until(31.0);
  f.sim->run_until(200.0);
  // Steady state again: every pair of adjacent correct nodes within a few
  // kappa of each other.
  double lo = sim::kInfinity;
  double hi = -sim::kInfinity;
  for (sim::NodeId v = 0; v < 6; ++v) {
    const double L = f.sim->logical(v);
    lo = std::min(lo, L);
    hi = std::max(hi, L);
  }
  EXPECT_LT(hi - lo, 15.0);
}

}  // namespace
}  // namespace tbcs::core
