#include "runner.hpp"

#include <sys/resource.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <optional>
#include <stdexcept>

#include "analysis/skew_tracker.hpp"
#include "core/aopt.hpp"
#include "core/ftgcs.hpp"
#include "decorators.hpp"
#include "dyn/churn_driver.hpp"
#include "dyn/stabilization_probe.hpp"
#include "fault/fault_injection.hpp"
#include "fault/fault_scheduler.hpp"
#include "graph/partition.hpp"
#include "sim/rng.hpp"

namespace perfbench {

namespace cli = tbcs::cli;
namespace sim = tbcs::sim;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

// The algorithms the workloads run, built as cli::build_experiment builds
// them, so the decorated node is the same node.
std::unique_ptr<sim::Node> build_inner_node(const cli::ExperimentConfig& cfg,
                                            const tbcs::core::SyncParams& params) {
  tbcs::core::AoptOptions o;
  o.neighbor_silence_timeout = cfg.silence_timeout;
  o.influence_bound = cfg.influence_bound;
  if (cfg.algorithm == "aopt") {
    return std::make_unique<tbcs::core::AoptNode>(params, o);
  }
  if (cfg.algorithm == "ftgcs") {
    return std::make_unique<tbcs::core::FtGcsNode>(params, o,
                                                   cli::resolve_ftgcs(cfg));
  }
  throw std::invalid_argument("perfbench: cannot decorate algorithm " +
                              cfg.algorithm);
}

// Replaces every node and both policies with timing decorators.  A liar
// keeps its fault::ByzantineNode outermost (FaultScheduler dynamic_casts
// for it), with the same per-node lie seed build_experiment derives.
void install_decorators(const cli::ExperimentConfig& cfg,
                        cli::BuiltExperiment& built) {
  sim::Simulator& s = *built.simulator;
  const std::uint64_t fault_seed =
      cfg.fault_seed != 0 ? cfg.fault_seed : cfg.seed;
  for (sim::NodeId v = 0; v < s.num_nodes(); ++v) {
    std::unique_ptr<sim::Node> node =
        std::make_unique<TimedNode>(build_inner_node(cfg, built.params));
    if (const tbcs::fault::ByzantineSpec* spec =
            built.timeline.byzantine_spec(v)) {
      const std::uint64_t node_seed =
          sim::SplitMix64(fault_seed ^ ((static_cast<std::uint64_t>(v) + 1) *
                                        0x9e3779b97f4a7c15ULL))
              .next();
      node = std::make_unique<tbcs::fault::ByzantineNode>(std::move(node),
                                                          *spec, node_seed);
    }
    s.set_node(v, std::move(node));
  }
  s.set_drift_policy(std::make_shared<TimedDrift>(built.drift));
  std::shared_ptr<sim::DelayPolicy> installed = built.delay;
  if (built.channel) installed = built.channel;
  s.set_delay_policy(std::make_shared<TimedDelay>(installed));
}

void check_le(std::vector<std::string>& failures, const char* what,
              double value, double bound) {
  // Bounds are closed; the relative slack only absorbs rounding in the
  // bound formula itself.
  if (!(value <= bound * (1.0 + 1e-12))) {
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%s %.17g exceeds bound %.17g", what,
                  value, bound);
    failures.emplace_back(buf);
  }
}

}  // namespace

RunOutcome run_experiment(const cli::ExperimentConfig& cfg,
                          const RunOptions& opt) {
  RunOutcome out;
  Tracer& tracer = Tracer::global();
  tracer.stop();

  if (opt.traced) {
    const auto t0 = Clock::now();
    const tbcs::graph::Graph g = cli::build_topology(cfg);
    out.graph_build_s = seconds_since(t0);
  }

  auto t_build = Clock::now();
  cli::BuiltExperiment built = cli::build_experiment(cfg);
  if (opt.traced) install_decorators(cfg, built);
  out.setup_s = seconds_since(t_build);
  sim::Simulator& s = *built.simulator;
  const tbcs::graph::Graph& g = *built.graph;

  // Check-side work (not set-up): the diameter for the bounds.  Exact on
  // small graphs, as run_one computes it; the two-sweep figure is exact on
  // paths and on vertex-transitive graphs such as the torus.
  out.diameter = (opt.wiring == Wiring::kSweep || g.num_nodes() <= 4096)
                     ? g.diameter()
                     : g.diameter_2sweep();
  out.global_bound = built.params.global_skew_bound(out.diameter, cfg.eps,
                                                    cfg.delay);
  out.local_bound = built.params.local_skew_bound(out.diameter, cfg.eps,
                                                  cfg.delay);

  const auto t_obs = Clock::now();
  const tbcs::obs::HistoryConfig hcfg = cli::resolve_history(cfg);
  const bool stair = hcfg.backend == tbcs::obs::HistoryConfig::Backend::kStair;
  tbcs::analysis::SkewTracker::Options topt;
  topt.audit_epsilon = opt.audit_epsilon;
  topt.history = hcfg;
  if (stair) {
    topt.sample_grid = cfg.delay;
    topt.error_rate_span =
        (1.0 + cfg.eps) * (1.0 + built.params.mu) - (1.0 - cfg.eps);
  } else if (opt.wiring == Wiring::kTool) {
    topt.series_interval = cfg.duration / 200.0;
  }
  const bool faulty = !built.timeline.empty();
  if (faulty) {
    topt.recovery_global_bound = out.global_bound;
    topt.recovery_local_bound = out.local_bound;
    topt.recovery_classify_interval = cfg.delay;
    for (const tbcs::fault::ByzantineSpec& b : built.timeline.byzantine) {
      topt.exclude.push_back(b.node);
    }
  }
  tbcs::analysis::SkewTracker tracker(s, topt);
  std::optional<tbcs::dyn::StabilizationProbe> probe;
  if (!built.churn.empty()) {
    tbcs::dyn::StabilizationProbe::Options popt;
    popt.bound = cfg.stab_bound > 0.0 ? cfg.stab_bound : out.local_bound;
    popt.mu = built.params.mu;
    popt.history = hcfg;
    if (stair) popt.sample_grid = cfg.delay;
    probe.emplace(popt);
    probe->preload(built.churn);
  }
  // The same observers in traced and untraced runs (any observer changes
  // the sharded window cadence); the span is inert while tracing is off.
  tbcs::dyn::StabilizationProbe* pr = probe ? &*probe : nullptr;
  if (s.shards() > 0) {
    s.set_window_observer(
        [&tracker, pr](const sim::Simulator& sm, double t,
                       const std::vector<sim::Simulator::WindowTouch>& touched) {
          ScopedSpan span(SpanKind::kObserve);
          tracker.observe_window(sm, t, touched);
          if (pr != nullptr) pr->observe(sm, t);
        });
  } else {
    s.set_observer([&tracker, pr](const sim::Simulator& sm, double t) {
      ScopedSpan span(SpanKind::kObserve);
      tracker.observe(sm, t);
      if (pr != nullptr) pr->observe(sm, t);
    });
  }
  out.setup_s += seconds_since(t_obs);

  if (opt.traced) {
    const int k = std::max(1, s.shards());
    const std::string strategy =
        s.shards() > 0 ? s.partition_strategy() : std::string("block");
    const auto t0 = Clock::now();
    const tbcs::graph::Partition p = tbcs::graph::Partition::make(g, k, strategy);
    out.graph_partition_s = seconds_since(t0);
    // Spans cover initialization too: wake-all runs broadcast there.
    tracer.start(opt.sample_shift);
  }

  const double cpu_init = process_cpu_s();
  const auto t_init = Clock::now();
  s.run_until(0.0);
  out.init_s = seconds_since(t_init);
  out.setup_s += out.init_s;

  const std::uint64_t events0 = s.events_processed();
  const double cpu0 = process_cpu_s();
  const auto t_run = Clock::now();
  std::optional<tbcs::fault::FaultScheduler> faults;
  std::optional<tbcs::dyn::ChurnDriver> driver;
  if (faulty) {
    faults.emplace(built.timeline);
    faults->set_listener(
        [&tracker](const tbcs::fault::FaultEvent& e, double t) {
          if (e.kind == tbcs::fault::FaultKind::kScramble) {
            tracker.note_scramble(t);
          } else {
            tracker.note_fault(t);
          }
        });
    faults->run(s, cfg.duration);
  } else if (!built.churn.empty()) {
    tbcs::dyn::ChurnDriverOptions dopt;
    dopt.check_interval = cfg.churn_check_interval > 0.0
                              ? cfg.churn_check_interval
                              : cfg.duration / 20.0;
    dopt.cut_growth = cfg.churn_cut_growth;
    dopt.repartition = cfg.churn_repartition;
    driver.emplace(s, dopt);
    driver->run(cfg.duration);
  } else {
    s.run_until(cfg.duration);
  }
  out.sim_s = seconds_since(t_run);
  const double cpu_end = process_cpu_s();
  out.cpu_s = cpu_end - cpu0;
  out.traced_cpu_s = cpu_end - cpu_init;
  out.sim_events = s.events_processed() - events0;
  if (opt.traced) {
    tracer.stop();
    out.spans = tracer.collect();
  }

  Fingerprint& fp = out.fp;
  fp.events = s.events_processed();
  fp.broadcasts = s.broadcasts();
  fp.delivered = s.messages_delivered();
  fp.dropped = s.messages_dropped();
  fp.timer_arms = s.timer_arms();
  fp.timer_cancels = s.timer_cancels();
  fp.queue_pushes = s.queue_stats().pushes;
  fp.queue_peak = s.queue_stats().peak_size;
  fp.global_skew = tracker.max_global_skew();
  fp.local_skew = tracker.max_local_skew();

  out.envelope_violation = tracker.max_envelope_violation();
  check_le(out.failures, "global skew (Thm 5.5)", fp.global_skew,
           out.global_bound);
  check_le(out.failures, "local skew (Thm 5.10)", fp.local_skew,
           out.local_bound);
  if (opt.audit_epsilon > 0.0 && !faulty) {
    check_le(out.failures, "envelope violation (Cor 5.3)",
             out.envelope_violation, 0.0);
  }
  if (faults) {
    out.faults_applied = faults->applied();
    out.timeline_events = built.timeline.events.size();
    if (out.faults_applied != out.timeline_events) {
      out.failures.push_back("faults applied " +
                             std::to_string(out.faults_applied) + " != timeline " +
                             std::to_string(out.timeline_events));
    }
  }

  out.lanes = s.shards();
  const sim::Simulator::QueueImplInfo qi = s.queue_impl_info();
  out.ladder_resorts = qi.resorts;
  out.ladder_spills = qi.spills;
  out.samples = tracker.samples_taken();
  out.full_scans = tracker.full_scans();
  out.history_bytes = tracker.history_memory_bytes();
  out.churn_ops = built.churn.ops.size();
  if (driver) {
    out.repartitions = driver->repartitions();
    out.live_cut_fraction = driver->live_cut_fraction();
  }
  if (s.partition() != nullptr) {
    const auto bal = s.partition()->balance();
    out.cut_edges = bal.cut_edges;
    out.imbalance = bal.imbalance;
  }
  return out;
}

namespace {

void append_hex(std::string& s, const char* key, double v) {
  char buf[128];
  std::snprintf(buf, sizeof(buf), "\"%s\": \"%a\", \"%s_dec\": %.10g", key, v,
                key, v);
  s += buf;
}

}  // namespace

std::string Fingerprint::to_json() const {
  std::string s = "{";
  const std::pair<const char*, std::uint64_t> counts[] = {
      {"events", events},         {"broadcasts", broadcasts},
      {"delivered", delivered},   {"dropped", dropped},
      {"timer_arms", timer_arms}, {"timer_cancels", timer_cancels},
      {"queue_pushes", queue_pushes}, {"queue_peak", queue_peak}};
  for (const auto& [k, v] : counts) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "\"%s\": %llu, ", k,
                  static_cast<unsigned long long>(v));
    s += buf;
  }
  append_hex(s, "global_skew", global_skew);
  s += ", ";
  append_hex(s, "local_skew", local_skew);
  s += "}";
  return s;
}

bool same_as_run_result(const Fingerprint& fp, const tbcs::exec::RunResult& r) {
  auto metric = [&r](const char* name) {
    for (const auto& [k, v] : r.metrics) {
      if (k == name) return v;
    }
    return -1.0;
  };
  return r.ok && static_cast<double>(fp.events) == metric("events") &&
         fp.broadcasts == r.broadcasts && fp.delivered == r.messages &&
         static_cast<double>(fp.dropped) == metric("messages_dropped") &&
         static_cast<double>(fp.timer_cancels) == metric("timer_cancels") &&
         static_cast<double>(fp.queue_pushes) == metric("queue_pushes") &&
         static_cast<double>(fp.queue_peak) == metric("queue_peak") &&
         fp.global_skew == r.global_skew && fp.local_skew == r.local_skew;
}

}  // namespace perfbench
