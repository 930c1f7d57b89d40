// Micro-benchmarks of the substrate (google-benchmark): event queue,
// hardware clock math, the Algorithm 3 closed form, trajectory inversion,
// and an end-to-end simulator throughput measurement.
//
// `--bench_json=FILE` additionally writes the results through the shared
// tbcs-bench-v1 sink (bench_json.hpp), the same format bench_core_hotpath
// records its trajectory in.
#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "core/aopt.hpp"
#include "core/params.hpp"
#include "core/rate_rule.hpp"
#include "graph/topologies.hpp"
#include "lowerbound/shifting.hpp"
#include "sim/hardware_clock.hpp"
#include "sim/ladder_queue.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace tbcs;

void BM_EventQueuePushPop(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  sim::Rng rng(1);
  std::vector<double> times(n);
  for (auto& t : times) t = rng.uniform(0.0, 1000.0);
  for (auto _ : state) {
    sim::LadderQueue q;
    for (const double t : times) {
      sim::Event e;
      e.time = t;
      q.push(e);
    }
    double last = 0.0;
    while (!q.empty()) last = q.pop().time;
    benchmark::DoNotOptimize(last);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_EventQueuePushPop)->Arg(1024)->Arg(16384);

void BM_HardwareClockValue(benchmark::State& state) {
  sim::HardwareClock c;
  c.set_rate(0.0, 1.01);
  c.start(0.0);
  double t = 0.0;
  for (auto _ : state) {
    t += 0.001;
    benchmark::DoNotOptimize(c.value_at(t));
  }
}
BENCHMARK(BM_HardwareClockValue);

void BM_RateRuleClosedForm(benchmark::State& state) {
  sim::Rng rng(2);
  for (auto _ : state) {
    const double up = rng.uniform(-5.0, 5.0);
    const double dn = rng.uniform(-5.0, 5.0);
    benchmark::DoNotOptimize(core::clock_increase(up, dn, 1.3, 2.0));
  }
}
BENCHMARK(BM_RateRuleClosedForm);

void BM_PiecewiseRateInverse(benchmark::State& state) {
  std::vector<sim::RateStep> steps;
  for (int i = 0; i < 16; ++i) {
    steps.push_back({static_cast<double>(i) * 10.0, 1.0 + 0.01 * (i % 5)});
  }
  lowerbound::PiecewiseRate traj(steps);
  double target = 0.0;
  for (auto _ : state) {
    target += 0.13;
    if (target > 150.0) target = 0.0;
    benchmark::DoNotOptimize(traj.time_when(target));
  }
}
BENCHMARK(BM_PiecewiseRateInverse);

void BM_SimulatorAoptThroughput(benchmark::State& state) {
  const auto n = static_cast<graph::NodeId>(state.range(0));
  const graph::Graph g = graph::make_path(n);
  const core::SyncParams params = core::SyncParams::recommended(1.0, 0.01, 0.2);
  std::uint64_t events = 0;
  for (auto _ : state) {
    sim::Simulator sim(g);
    sim.set_all_nodes([&params](sim::NodeId) {
      return std::make_unique<core::AoptNode>(params);
    });
    sim.set_drift_policy(std::make_shared<sim::RandomWalkDrift>(0.01, 10.0, 3));
    sim.set_delay_policy(std::make_shared<sim::UniformDelay>(0.0, 1.0, 5));
    sim.run_until(200.0);
    events += sim.events_processed();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
  state.counters["events"] =
      static_cast<double>(events) / static_cast<double>(state.iterations());
}
BENCHMARK(BM_SimulatorAoptThroughput)->Arg(16)->Arg(64);

// Console output as usual, plus every finished run mirrored into the
// shared JSON sink.
class JsonSinkReporter : public benchmark::ConsoleReporter {
 public:
  explicit JsonSinkReporter(tbcs::bench::BenchJsonWriter* sink) : sink_(sink) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    ConsoleReporter::ReportRuns(runs);
    if (!sink_) return;
    for (const Run& r : runs) {
      if (r.error_occurred || r.run_type != Run::RT_Iteration) continue;
      auto& result = sink_->add(r.benchmark_name());
      result.metric("real_time_ns", r.GetAdjustedRealTime())
          .metric("iterations", static_cast<double>(r.iterations));
      for (const auto& [key, counter] : r.counters) {
        result.metric(key, counter.value);
      }
    }
  }

 private:
  tbcs::bench::BenchJsonWriter* sink_;
};

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    const std::string a = argv[i];
    constexpr const char* kFlag = "--bench_json=";
    if (a.rfind(kFlag, 0) == 0) {
      json_path = a.substr(std::string(kFlag).size());
      continue;
    }
    args.push_back(argv[i]);
  }
  int filtered_argc = static_cast<int>(args.size());
  benchmark::Initialize(&filtered_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(filtered_argc, args.data())) {
    return 1;
  }
  tbcs::bench::BenchJsonWriter sink("bench_micro");
  JsonSinkReporter reporter(json_path.empty() ? nullptr : &sink);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  if (!json_path.empty()) sink.write_file(json_path);
  return 0;
}
