// A3 — randomized adversary search: what do randomly sampled adversaries
// achieve against A^opt as D grows?
//
// Finding (reproduced by this bench): families whose attack energy scales
// with D (square waves with period ~ D T behind skew-hiding delays act
// like one level of the Lemma 7.6 construction) extract a growing
// *fraction* of the worst-case bound — evidence the bound is no paper
// tiger — while never exceeding it (Theorem 5.10 holds in every one of
// the hundreds of sampled executions).  Climbing the remaining gap needs
// the multi-level zooming of the structured construction (E5).
//
// The trials are independent simulations, so they execute on the exec
// worker pool (--jobs N, default: hardware concurrency).  Adversary
// parameters for trial i are drawn from a generator seeded by
// derive_seed(base, i): the sampled adversaries — and thus the table —
// are identical for every job count.
#include <algorithm>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "cli/args.hpp"
#include "exec/run_spec.hpp"
#include "sim/rng.hpp"

namespace {

using namespace tbcs;

constexpr std::uint64_t kSeedBase = 20260707;

bench::RunSpec make_trial_spec(const graph::Graph& g,
                               const core::SyncParams& params, double eps,
                               double t, int trial) {
  const int n = g.num_nodes();
  const int d = n - 1;
  sim::Rng rng(exec::derive_seed(kSeedBase, static_cast<std::uint64_t>(trial)));
  bench::RunSpec spec;
  spec.graph = &g;
  spec.factory = [&params](sim::NodeId) {
    return std::make_unique<core::AoptNode>(params);
  };
  // Alternate between the two strongest families found by a wider
  // search: square-wave + hiding delays, and sinusoidal + bimodal.
  if (trial % 2 == 0) {
    const auto cut = static_cast<sim::NodeId>(1 + rng.uniform_index(n - 2));
    spec.drift = std::make_shared<sim::SquareWaveDrift>(
        eps, rng.uniform(0.5, 4.0) * d * t,
        [cut](sim::NodeId v) { return v < cut; });
    spec.delay = bench::skew_hiding_delays(
        g, static_cast<graph::NodeId>(rng.uniform_index(n)), t);
  } else {
    spec.drift = std::make_shared<sim::SinusoidalDrift>(
        eps, rng.uniform(10.0, 120.0), rng.next_u64());
    spec.delay = std::make_shared<sim::BimodalDelay>(
        0.05 * t, t, rng.uniform(0.05, 0.5), rng.next_u64());
  }
  spec.duration = 8.0 * d * t;
  return spec;
}

double worst_random_local(const graph::Graph& g, const core::SyncParams& params,
                          double eps, double t, int trials, int trial_base,
                          int jobs) {
  std::vector<bench::RunSpec> specs;
  specs.reserve(static_cast<std::size_t>(trials));
  for (int trial = 0; trial < trials; ++trial) {
    specs.push_back(make_trial_spec(g, params, eps, t, trial_base + trial));
  }
  const std::vector<bench::RunMetrics> metrics = bench::run_all(specs, jobs);
  double worst = 0.0;
  for (const auto& m : metrics) worst = std::max(worst, m.local_skew);
  return worst;
}

}  // namespace

int main(int argc, char** argv) {
  cli::ArgParser args(argc, argv);
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  const int jobs = args.get_int("jobs", hw > 0 ? hw : 1);

  const double t = 1.0;
  const double eps = 0.05;
  const core::SyncParams params = core::SyncParams::recommended(t, eps, 0.0);
  const int kTrials = 50;

  bench::print_header(
      "A3: randomized adversary search vs diameter",
      "claim: sampled adversaries reach a growing fraction of the bound\n"
      "but never exceed it; the multi-level construction (E5) is needed\n"
      "to close the remaining gap.");

  analysis::Table table({"D", "worst random local (50 trials)", "local bound",
                         "random/bound"});
  int trial_base = 0;
  for (const int n : {17, 33, 65, 129}) {
    const graph::Graph g = graph::make_path(n);
    const double worst =
        worst_random_local(g, params, eps, t, kTrials, trial_base, jobs);
    trial_base += kTrials;
    const double bound = params.local_skew_bound(n - 1, eps, t);
    table.add_row({analysis::Table::integer(n - 1),
                   analysis::Table::num(worst),
                   analysis::Table::num(bound),
                   analysis::Table::num(worst / bound, 3)});
  }
  table.print(std::cout);

  std::cout
      << "\nexpected shape: the ratio column grows with D but stays well\n"
         "below 1 — every sampled execution respects Theorem 5.10, and the\n"
         "square-wave family (a de-facto single construction level) is the\n"
         "engine behind the growth; see E5 for the multi-level attack.\n";
  return 0;
}
