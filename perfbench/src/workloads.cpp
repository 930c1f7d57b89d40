#include "workloads.hpp"

#include <sys/resource.h>

#include <chrono>
#include <fstream>
#include <map>
#include <optional>
#include <stdexcept>

#include "exec/sweep_runner.hpp"
#include "fault/fault_plan.hpp"
#include "runner.hpp"

namespace perfbench {

namespace cli = tbcs::cli;
namespace exec = tbcs::exec;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

constexpr const char* kGrid = "grid1k_flood_serial";
constexpr const char* kLine = "line1m_wakeall_s4";
constexpr const char* kTorus = "torus64k_churn_ftgcs_s2";
constexpr const char* kSweep = "ring_fault_sweep_j4";
constexpr int kSweepJobs = 4;

// ---- the sweep's fault plans ------------------------------------------------
// One plan per fault family; node ids and edges exist on every ring size
// swept (n >= 16).
struct Plan {
  const char* name;
  const char* text;
};
constexpr Plan kPlans[] = {
    {"crash", "crash node=5 at=30\nrecover node=5 at=60\n"},
    {"flap", "flap u=2 v=3 at=30 period=10 count=3\n"},
    {"channel",
     "channel from=30 until=60 drop=0.1 dup=0.05 corrupt=0.05 "
     "magnitude=0.5 jitter=0.2\n"},
    {"byzantine", "byzantine node=4 from=20 until=80 mode=random offset=2\n"},
    {"random-crashes",
     "random-crashes count=2 from=20 until=80 down-min=5 down-max=15\n"},
};
// Largest rings first: the pool takes specs in order, so the longest runs
// start early instead of leaving one worker busy at the end of a pass.
constexpr int kRingSizes[] = {256, 128, 64, 32, 16};
constexpr int kReplicas = 4;

struct SimulationRun {
  RunOutcome out;
  bool traced = false;
  double wall_s = 0.0;  // the whole run: build, init, timed part, checks
};

RunOptions options_for(const cli::ExperimentConfig& cfg, bool traced) {
  RunOptions o;
  o.traced = traced;
  o.wiring = Wiring::kTool;
  o.audit_epsilon = cfg.eps;  // tbcs_sim audits the envelope on every run
  return o;
}

SpanTable add(const SpanTable& a, const SpanTable& b) {
  SpanTable s = a;
  for (int k = 0; k < kNumSpanKinds; ++k) {
    s[k].calls += b[k].calls;
    s[k].sampled += b[k].sampled;
    s[k].incl_ns += b[k].incl_ns;
    s[k].self_ns += b[k].self_ns;
    s[k].top_calls += b[k].top_calls;
    s[k].top_sampled += b[k].top_sampled;
    s[k].top_ns += b[k].top_ns;
  }
  return s;
}

// Everything the per-layer metrics are computed from.
struct LayerData {
  SpanTable spans{};            // summed over the traced runs
  std::uint64_t span_events = 0;  // events those spans cover
  double span_wall_s = 0.0;     // wall time those spans cover
  double span_cpu_s = 0.0;
  int lanes = 0;

  RunOutcome counts;            // one traced run (the sweep: one pass, summed)
  std::uint64_t handler_calls = 0;  // in `counts`' timed part
  std::uint64_t timer_calls = 0;
  std::uint64_t counted_events = 0;
  std::vector<double> init_s, build_s, partition_s;
  std::vector<double> run_s;  // per-run wall, for the exec layer
  double pool_efficiency = 0.0;
  double trace_overhead = 0.0;
  std::uint64_t fault_dropped = 0;
};

void emit_layers(const LayerData& d, Record& rec) {
  const double ev = static_cast<double>(std::max<std::uint64_t>(d.span_events, 1));
  auto per_event = [&](SpanKind k) {
    return d.spans[static_cast<int>(k)].est_self_ns() / ev;
  };
  double top_ns = 0.0;
  for (const SpanTotals& t : d.spans) top_ns += t.est_top_ns();
  const double k = static_cast<double>(std::max(1, d.lanes));
  const RunOutcome& c = d.counts;
  const double scans = static_cast<double>(c.full_scans);
  const double samples = static_cast<double>(c.samples);
  const Tail tail = tail_percentile(d.run_s);
  auto& m = rec.metrics;
  m = {
      {"sim.engine_ns_per_event", (k * d.span_wall_s * 1e9 - top_ns) / ev, "ns"},
      {"sim.broadcast_ns_per_event", per_event(SpanKind::kBroadcast), "ns"},
      {"sim.timer_ns_per_event", per_event(SpanKind::kTimer), "ns"},
      {"sim.delay_ns_per_event", per_event(SpanKind::kDelay), "ns"},
      {"sim.drift_ns_per_event", per_event(SpanKind::kDrift), "ns"},
      {"sim.lane_busy_share", d.span_cpu_s / (k * d.span_wall_s), "share"},
      {"sim.init_s", median(d.init_s), "s"},
      {"sim.events", static_cast<double>(c.fp.events), "count"},
      {"sim.messages", static_cast<double>(c.fp.delivered), "count"},
      {"sim.dropped", static_cast<double>(c.fp.dropped), "count"},
      {"sim.timer_calls_per_event",
       static_cast<double>(d.timer_calls) /
           static_cast<double>(std::max<std::uint64_t>(d.counted_events, 1)),
       "ratio"},
      {"sim.timer_arms", static_cast<double>(c.fp.timer_arms), "count"},
      {"sim.timer_cancels", static_cast<double>(c.fp.timer_cancels), "count"},
      {"sim.queue_pushes", static_cast<double>(c.fp.queue_pushes), "count"},
      {"sim.queue_peak", static_cast<double>(c.fp.queue_peak), "count"},
      {"sim.ladder_resorts", static_cast<double>(c.ladder_resorts), "count"},
      {"sim.ladder_spills", static_cast<double>(c.ladder_spills), "count"},
      {"sim.shards_effective", static_cast<double>(d.lanes), "count"},
      {"core.handler_ns_per_event", per_event(SpanKind::kHandler), "ns"},
      {"core.handler_calls", static_cast<double>(d.handler_calls), "count"},
      {"graph.build_s", median(d.build_s), "s"},
      {"graph.partition_s", median(d.partition_s), "s"},
      {"graph.cut_edges", static_cast<double>(c.cut_edges), "count"},
      {"graph.imbalance", c.imbalance, "ratio"},
      {"analysis.observe_ns_per_event", per_event(SpanKind::kObserve), "ns"},
      {"analysis.samples", samples, "count"},
      {"analysis.full_scans", scans, "count"},
      {"analysis.full_scan_ratio", samples > 0 ? scans / samples : 0.0, "ratio"},
      {"analysis.history_bytes", static_cast<double>(c.history_bytes), "bytes"},
      {"dyn.churn_ops", static_cast<double>(c.churn_ops), "count"},
      {"dyn.repartitions", static_cast<double>(c.repartitions), "count"},
      {"dyn.live_cut_fraction", c.live_cut_fraction, "share"},
      {"fault.faults_applied", static_cast<double>(c.faults_applied), "count"},
      {"fault.dropped", static_cast<double>(d.fault_dropped), "count"},
      {"exec.run_s_p50", median(d.run_s), "s"},
      {"exec.run_s_tail", tail.value, "s"},
      {"exec.pool_efficiency", d.pool_efficiency, "share"},
      {"trace_overhead", d.trace_overhead, "ratio"},
  };
  char buf[96];
  std::snprintf(buf, sizeof(buf), "exec.run_s_tail is p%g of %zu runs", tail.p,
                d.run_s.size());
  rec.notes.emplace_back(buf);
}

}  // namespace

void check_run(Record& rec, const RunOutcome& out,
               std::optional<Fingerprint>& reference, const char* label) {
  ++rec.attempted;
  std::vector<std::string> why = out.failures;
  if (!reference) {
    reference = out.fp;
  } else if (!(out.fp == *reference)) {
    why.push_back(std::string(label) + " fingerprint " + out.fp.to_json() +
                  " differs from the first run's");
  }
  if (!why.empty()) {
    ++rec.failed;
    for (const std::string& w : why) rec.fail(w);
  }
}

namespace {

// ---- single-simulation workloads ----------------------------------------------

Record measure_simulation(const MeasureOptions& mo) {
  Record rec;
  // Runs simulate sub-seeds 0, 0, 1, 2, ... (sub-seed 0 is the seed
  // itself), so one invocation's medians pool many trajectories: the exact
  // tracker's cost varies with the trajectory far more than with the host.
  // The second run repeats sub-seed 0 and must reproduce it exactly.
  // Traced invocations follow each untraced run with a traced run of the
  // same sub-seed, which must match it too.
  auto sub_seed = [&mo](std::size_t j) {
    return j == 0 ? mo.seed : exec::derive_seed(mo.seed, j);
  };
  std::map<std::uint64_t, std::optional<Fingerprint>> reference;
  std::vector<SimulationRun> runs;
  std::vector<double> overhead;  // untraced / traced events/s, per pair
  std::vector<double> iteration_s;
  auto run_once = [&](std::size_t j, bool traced) -> const SimulationRun& {
    const cli::ExperimentConfig cfg = simulation_config(mo.workload, sub_seed(j));
    const auto r0 = Clock::now();
    SimulationRun run{run_experiment(cfg, options_for(cfg, traced)), traced, 0.0};
    run.wall_s = seconds_since(r0);
    check_run(rec, run.out, reference[cfg.seed], traced ? "traced" : "untraced");
    runs.push_back(std::move(run));
    return runs.back();
  };
  auto rate = [](const SimulationRun& r) {
    return static_cast<double>(r.out.sim_events) / r.out.sim_s;
  };
  // Stops when the next iteration would end more than half an iteration
  // past the deadline, so an invocation lasts about mo.seconds.
  const auto t0 = Clock::now();
  for (std::size_t i = 0;
       i < static_cast<std::size_t>(mo.min_runs) ||
       seconds_since(t0) + 0.5 * median(iteration_s) < mo.seconds;
       ++i) {
    const auto i0 = Clock::now();
    const std::size_t j = i == 0 ? 0 : i - 1;
    const double u = rate(run_once(j, false));
    if (mo.trace) overhead.push_back(u / rate(run_once(j, true)));
    iteration_s.push_back(seconds_since(i0));
  }
  rec.fingerprint_json = reference[mo.seed]->to_json();
  const double loop_s = seconds_since(t0);
  const cli::ExperimentConfig cfg = simulation_config(mo.workload, mo.seed);

  std::vector<double> eps_u, setup, walls;
  double wall_sum = 0.0;
  for (const SimulationRun& r : runs) {
    if (!r.traced) {
      eps_u.push_back(rate(r));
      setup.push_back(r.out.setup_s);
      walls.push_back(r.wall_s);
    }
    wall_sum += r.wall_s;
  }
  const RunOutcome& first = runs.front().out;
  char buf[200];
  std::snprintf(buf, sizeof(buf),
                "%zu runs to t=%g, D=%d, G bound %.4g, local bound %.4g, "
                "lanes %d",
                runs.size(), cfg.duration, first.diameter, first.global_bound,
                first.local_bound, first.lanes);
  rec.notes.emplace_back(buf);

  std::string per_run = "untraced events/s per run:";
  for (const double e : eps_u) per_run += " " + std::to_string(static_cast<long long>(e));
  rec.notes.push_back(per_run);
  if (!mo.trace) {
    rec.metrics = {
        {"events_per_s", median(eps_u), "1/s"},
        {"runs_per_s", 1.0 / median(walls), "1/s"},
        {"setup_s", median(setup), "s"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
    };
    return rec;
  }

  LayerData d;
  for (const SimulationRun& r : runs) {
    d.run_s.push_back(r.wall_s);
    if (!r.traced) {
      d.init_s.push_back(r.out.init_s);
      continue;
    }
    d.spans = add(d.spans, r.out.spans);
    d.span_events += r.out.fp.events;
    d.span_wall_s += r.out.init_s + r.out.sim_s;
    d.span_cpu_s += r.out.traced_cpu_s;
    d.build_s.push_back(r.out.graph_build_s);
    d.partition_s.push_back(r.out.graph_partition_s);
    if (d.counted_events == 0) {  // counts: the traced run of sub-seed 0
      d.counts = r.out;
      d.handler_calls = r.out.spans[static_cast<int>(SpanKind::kHandler)].calls;
      d.timer_calls = r.out.spans[static_cast<int>(SpanKind::kTimer)].calls;
      d.counted_events = r.out.fp.events;
    }
  }
  d.lanes = d.counts.lanes;
  d.pool_efficiency = wall_sum / loop_s;
  d.trace_overhead = median(overhead);
  d.fault_dropped = d.counts.faults_applied > 0 ? d.counts.fp.dropped : 0;
  emit_layers(d, rec);
  return rec;
}

// ---- the ring fault sweep -------------------------------------------------------

SweepExpectation expect_sweep(const std::vector<exec::RunSpec>& specs,
                              std::uint64_t base_seed) {
  SweepExpectation e;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const cli::ExperimentConfig& cfg = specs[i].config;
    const std::uint64_t seed = exec::derive_seed(base_seed, i);
    const auto tl = tbcs::fault::FaultPlan::load_file(cfg.faults_file)
                        .instantiate(cfg.fault_seed != 0 ? cfg.fault_seed : seed,
                                     cli::build_topology(cfg));
    e.timeline_events.push_back(tl.events.size());
  }
  return e;
}

double metric_of(const exec::RunResult& r, const char* name) {
  for (const auto& [k, v] : r.metrics) {
    if (k == name) return v;
  }
  return -1.0;
}

std::string spec_label(const exec::RunSpec& s) {
  std::string out;
  for (const auto& [k, v] : s.labels) out += k + "=" + v + " ";
  return out;
}

}  // namespace

void check_sweep(Record& rec, const std::vector<exec::RunSpec>& specs,
                 const std::vector<exec::RunResult>& results,
                 const SweepExpectation& expect,
                 std::vector<exec::RunResult>& reference) {
  const bool first = reference.empty();
  for (std::size_t i = 0; i < results.size(); ++i) {
    const exec::RunResult& r = results[i];
    ++rec.attempted;
    std::vector<std::string> why;
    const std::string label = spec_label(specs[i]);
    if (!r.ok) {
      why.push_back(label + "run failed: " + r.error);
    } else {
      if (!(r.global_skew <= r.global_bound)) {
        why.push_back(label + "global skew " + std::to_string(r.global_skew) +
                      " > bound " + std::to_string(r.global_bound));
      }
      if (!(r.local_skew <= r.local_bound)) {
        why.push_back(label + "local skew " + std::to_string(r.local_skew) +
                      " > bound " + std::to_string(r.local_bound));
      }
      const double applied = metric_of(r, "faults_applied");
      if (applied != static_cast<double>(expect.timeline_events[i])) {
        why.push_back(label + "faults applied " + std::to_string(applied) +
                      " != timeline " +
                      std::to_string(expect.timeline_events[i]));
      }
      if (!first) {
        const exec::RunResult& ref = reference[i];
        if (r.metrics != ref.metrics || r.global_skew != ref.global_skew ||
            r.local_skew != ref.local_skew || r.messages != ref.messages ||
            r.broadcasts != ref.broadcasts) {
          why.push_back(label + "result differs from the first pass");
        }
      }
    }
    if (!why.empty()) {
      ++rec.failed;
      for (const std::string& w : why) rec.fail(w);
    }
  }
  if (first) reference = results;
}

namespace {

// The sweep's simulated statistics, summed over its runs (maxima for the
// peak and the skews); exec::RunResult carries no timer arms.
Fingerprint sweep_fingerprint(const std::vector<exec::RunResult>& results) {
  Fingerprint fp;
  for (const exec::RunResult& r : results) {
    fp.events += static_cast<std::uint64_t>(metric_of(r, "events"));
    fp.broadcasts += r.broadcasts;
    fp.delivered += r.messages;
    fp.dropped += static_cast<std::uint64_t>(metric_of(r, "messages_dropped"));
    fp.timer_cancels += static_cast<std::uint64_t>(metric_of(r, "timer_cancels"));
    fp.queue_pushes += static_cast<std::uint64_t>(metric_of(r, "queue_pushes"));
    fp.queue_peak = std::max(fp.queue_peak,
                             static_cast<std::uint64_t>(metric_of(r, "queue_peak")));
    fp.global_skew = std::max(fp.global_skew, r.global_skew);
    fp.local_skew = std::max(fp.local_skew, r.local_skew);
  }
  return fp;
}

Record measure_sweep(const MeasureOptions& mo) {
  Record rec;
  exec::SweepOptions sopt;
  sopt.jobs = kSweepJobs;
  sopt.base_seed = mo.seed;
  const exec::SweepRunner runner(sopt);

  std::vector<exec::RunResult> reference;
  std::optional<SweepExpectation> expect;
  std::vector<double> setup, rps, eps, walls;
  LayerData d;
  std::vector<double> serial_s, replica_s;
  std::uint64_t pass_events = 0;

  const auto t0 = Clock::now();
  int untraced = 0, traced = 0;
  while (!(untraced >= mo.min_runs && (!mo.trace || traced >= mo.min_runs) &&
           seconds_since(t0) >= mo.seconds)) {
    // Set-up: spec expansion (with its plan files) plus one serial
    // cli::build_experiment per spec, the per-run set-up every run pays.
    const auto s0 = Clock::now();
    const std::vector<exec::RunSpec> specs = sweep_specs(mo.workdir);
    for (std::size_t i = 0; i < specs.size(); ++i) {
      cli::ExperimentConfig cfg = specs[i].config;
      cfg.seed = exec::derive_seed(mo.seed, i);
      const cli::BuiltExperiment built = cli::build_experiment(cfg);
    }
    setup.push_back(seconds_since(s0));
    if (!expect) expect = expect_sweep(specs, mo.seed);

    const auto r0 = Clock::now();
    const std::vector<exec::RunResult> results = runner.run(specs);
    const double wall = seconds_since(r0);
    if (reference.empty()) rec.fingerprint_json = sweep_fingerprint(results).to_json();
    check_sweep(rec, specs, results, *expect, reference);
    ++untraced;
    std::uint64_t events = 0;
    for (const exec::RunResult& r : results) {
      events += static_cast<std::uint64_t>(metric_of(r, "events"));
    }
    pass_events = events;
    rps.push_back(static_cast<double>(results.size()) / wall);
    eps.push_back(static_cast<double>(events) / wall);
    walls.push_back(wall);
    if (!mo.trace) continue;

    // Traced pass: run_one per spec on this thread (the exec layer's
    // per-run times), then a decorated replica of each run, which must
    // reproduce run_one's result exactly.
    ++traced;
    double run_sum = 0.0, replica_sum = 0.0;
    RunOutcome sum;
    std::uint64_t handler_calls = 0, timer_calls = 0;
    for (std::size_t i = 0; i < specs.size(); ++i) {
      const auto a0 = Clock::now();
      const exec::RunResult r = exec::SweepRunner::run_one(specs[i], i, sopt);
      const double a = seconds_since(a0);
      d.run_s.push_back(a);
      run_sum += a;
      if (!(r.ok && reference[i].ok && r.metrics == reference[i].metrics &&
            r.global_skew == reference[i].global_skew)) {
        ++rec.failed;
        rec.fail(spec_label(specs[i]) + "run_one differs from the pooled run");
      }
      ++rec.attempted;

      cli::ExperimentConfig cfg = specs[i].config;
      cfg.seed = r.seed;
      RunOptions ro;
      ro.traced = true;
      ro.wiring = Wiring::kSweep;
      ro.audit_epsilon = sopt.audit_epsilon;
      const auto b0 = Clock::now();
      const RunOutcome out = run_experiment(cfg, ro);
      replica_sum += seconds_since(b0);
      ++rec.attempted;
      if (!same_as_run_result(out.fp, r) || !out.failures.empty()) {
        ++rec.failed;
        rec.fail(spec_label(specs[i]) + "decorated replica " + out.fp.to_json() +
                 " differs from run_one");
        for (const std::string& w : out.failures) rec.fail(w);
      }
      d.spans = add(d.spans, out.spans);
      d.span_events += out.fp.events;
      d.span_wall_s += out.init_s + out.sim_s;
      d.span_cpu_s += out.traced_cpu_s;
      handler_calls += out.spans[static_cast<int>(SpanKind::kHandler)].calls;
      timer_calls += out.spans[static_cast<int>(SpanKind::kTimer)].calls;
      sum.fp.events += out.fp.events;
      sum.fp.delivered += out.fp.delivered;
      sum.fp.dropped += out.fp.dropped;
      sum.fp.timer_arms += out.fp.timer_arms;
      sum.fp.timer_cancels += out.fp.timer_cancels;
      sum.fp.queue_pushes += out.fp.queue_pushes;
      sum.fp.queue_peak = std::max(sum.fp.queue_peak, out.fp.queue_peak);
      sum.ladder_resorts += out.ladder_resorts;
      sum.ladder_spills += out.ladder_spills;
      sum.samples += out.samples;
      sum.full_scans += out.full_scans;
      sum.history_bytes += out.history_bytes;
      sum.faults_applied += out.faults_applied;
      sum.init_s += out.init_s;
      sum.graph_build_s += out.graph_build_s;
      sum.graph_partition_s += out.graph_partition_s;
    }
    d.counts = sum;
    d.handler_calls = handler_calls;
    d.timer_calls = timer_calls;
    d.counted_events = sum.fp.events;
    d.fault_dropped = sum.fp.dropped;
    d.init_s.push_back(sum.init_s);
    d.build_s.push_back(sum.graph_build_s);
    d.partition_s.push_back(sum.graph_partition_s);
    serial_s.push_back(run_sum);
    replica_s.push_back(replica_sum);
  }

  char buf[200];
  std::snprintf(buf, sizeof(buf),
                "%zu specs per pass, %d pooled passes at %d jobs, %llu events "
                "per pass",
                reference.size(), untraced, kSweepJobs,
                static_cast<unsigned long long>(pass_events));
  rec.notes.emplace_back(buf);
  if (!mo.trace) {
    rec.metrics = {
        {"events_per_s", median(eps), "1/s"},
        {"runs_per_s", median(rps), "1/s"},
        {"setup_s", median(setup), "s"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
    };
    return rec;
  }
  d.pool_efficiency = median(serial_s) / (kSweepJobs * median(walls));
  d.trace_overhead = median(replica_s) / median(serial_s);
  emit_layers(d, rec);
  return rec;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {kGrid, kLine, kTorus, kSweep};
  return names;
}

cli::ExperimentConfig simulation_config(const std::string& workload,
                                        std::uint64_t seed) {
  cli::ExperimentConfig c;
  c.seed = seed;
  c.algorithm = "aopt";
  c.delay = 1.0;
  if (workload == kGrid) {
    c.topology = "grid";
    c.rows = 32;
    c.cols = 32;
    c.delays = "uniform";
    c.duration = 1200.0;
    return c;
  }
  if (workload == kLine) {
    c.topology = "path";
    c.nodes = 1000000;
    c.wake_all = true;
    c.delays = "band";
    c.band_min = 0.25;
    c.shards = 4;
    c.obs_backend = "stair";
    c.duration = 8.0;
    return c;
  }
  if (workload == kTorus) {
    c.topology = "torus";
    c.rows = 256;
    c.cols = 256;
    c.wake_all = true;
    c.delays = "band";
    c.band_min = 0.25;
    c.algorithm = "ftgcs";
    c.ftgcs_f = 1;
    c.churn_node_rate = 0.002;
    c.churn_edge_rate = 0.002;
    c.churn_extra_edges = 0.05;
    // Two lanes, not four: at four lanes on a 4-vCPU host this
    // barrier-bound run amplified host noise to a 24% spread across seeds.
    c.shards = 2;
    c.obs_backend = "stair";
    c.duration = 40.0;
    return c;
  }
  throw std::invalid_argument("not a single-simulation workload: " + workload);
}

std::vector<exec::RunSpec> sweep_specs(const std::string& plan_dir) {
  std::vector<exec::RunSpec> specs;
  for (const Plan& p : kPlans) {
    const std::string path = plan_dir + "/perfbench_" + p.name + ".plan";
    std::ofstream f(path);
    f << p.text;
    if (!f) throw std::runtime_error("cannot write " + path);
  }
  for (const int n : kRingSizes) {
    for (const Plan& p : kPlans) {
      for (int rep = 0; rep < kReplicas; ++rep) {
        exec::RunSpec s;
        s.config.topology = "ring";
        s.config.nodes = n;
        s.config.algorithm = "ftgcs";
        s.config.ftgcs_f = 1;
        s.config.duration = 120.0;
        s.config.faults_file = plan_dir + "/perfbench_" + p.name + ".plan";
        s.labels = {{"n", std::to_string(n)},
                    {"plan", p.name},
                    {"replica", std::to_string(rep)}};
        specs.push_back(std::move(s));
      }
    }
  }
  return specs;
}

Record measure(const MeasureOptions& opts) {
  Record rec = opts.workload == kSweep ? measure_sweep(opts)
                                       : measure_simulation(opts);
  rec.workload = opts.workload;
  rec.seed = opts.seed;
  rec.trace = opts.trace;
  return rec;
}

double peak_rss_mb() {
  // VmHWM rather than ru_maxrss: Linux carries ru_maxrss across exec, so
  // a process forked from a large parent would report the parent's peak.
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

}  // namespace perfbench
