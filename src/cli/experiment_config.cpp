#include "cli/experiment_config.hpp"

#include <cmath>
#include <cstdio>
#include <memory>
#include <vector>

#include "baselines/averaging_algorithm.hpp"
#include "cli/args.hpp"
#include "baselines/free_running.hpp"
#include "baselines/max_algorithm.hpp"
#include "core/adaptive_delay.hpp"
#include "core/aopt_variants.hpp"
#include "core/envelope_sync.hpp"
#include "core/external_sync.hpp"
#include "graph/partition.hpp"
#include "graph/topologies.hpp"
#include "sim/clock_model.hpp"
#include "sim/rng.hpp"
#include "sim/tick_quantizer.hpp"

namespace tbcs::cli {

void apply_model_flags(ArgParser& args, ExperimentConfig& cfg) {
  cfg.topology = args.get_string("topology", cfg.topology);
  cfg.nodes = args.get_int("nodes", cfg.nodes);
  cfg.rows = args.get_int("rows", cfg.rows);
  cfg.cols = args.get_int("cols", cfg.cols);
  cfg.dims = args.get_int("dims", cfg.dims);
  cfg.arity = args.get_int("arity", cfg.arity);
  cfg.levels = args.get_int("levels", cfg.levels);
  cfg.er_p = args.get_double("er-p", cfg.er_p);
  cfg.algorithm = args.get_string("algo", cfg.algorithm);
  cfg.tick_frequency = args.get_double("tick-frequency", cfg.tick_frequency);
  cfg.eps = args.get_double("eps", cfg.eps);
  cfg.delay = args.get_double("delay", cfg.delay);
  cfg.mu = args.get_double("mu", cfg.mu);
  cfg.h0 = args.get_double("h0", cfg.h0);
  cfg.drift = args.get_string("drift", cfg.drift);
  cfg.drift_interval = args.get_double("drift-interval", cfg.drift_interval);
  cfg.drift_step = args.get_double("drift-step", cfg.drift_step);
  cfg.delays = args.get_string("delays", cfg.delays);
  cfg.band_min = args.get_double("band-min", cfg.band_min);
  cfg.duration = args.get_double("duration", cfg.duration);
  cfg.seed = args.get_u64("seed", cfg.seed);
  cfg.wake_all = args.get_bool("wake-all", cfg.wake_all);
  cfg.shards = args.get_int("shards", cfg.shards);
  cfg.partition = args.get_string("partition", cfg.partition);
  cfg.min_shard_nodes = args.get_int("shards-min-nodes", cfg.min_shard_nodes);
  cfg.faults_file = args.get_string("faults", cfg.faults_file);
  cfg.fault_seed = args.get_u64("fault-seed", cfg.fault_seed);
  cfg.silence_timeout = args.get_double("silence-timeout", cfg.silence_timeout);
  cfg.influence_bound = args.get_double("influence-bound", cfg.influence_bound);
  cfg.ftgcs_f = args.get_int("ftgcs-f", cfg.ftgcs_f);
  cfg.ftgcs_filter = args.get_string("ftgcs-filter", cfg.ftgcs_filter);
  cfg.churn_node_rate = args.get_double("churn-node-rate", cfg.churn_node_rate);
  cfg.churn_edge_rate = args.get_double("churn-edge-rate", cfg.churn_edge_rate);
  cfg.churn_downtime = args.get_double("churn-downtime", cfg.churn_downtime);
  cfg.churn_node_fraction =
      args.get_double("churn-node-fraction", cfg.churn_node_fraction);
  cfg.churn_edge_fraction =
      args.get_double("churn-edge-fraction", cfg.churn_edge_fraction);
  cfg.churn_extra_edges =
      args.get_double("churn-extra-edges", cfg.churn_extra_edges);
  cfg.churn_start = args.get_double("churn-start", cfg.churn_start);
  cfg.churn_stop = args.get_double("churn-stop", cfg.churn_stop);
  cfg.churn_min_present =
      args.get_int("churn-min-present", cfg.churn_min_present);
  cfg.churn_seed = args.get_u64("churn-seed", cfg.churn_seed);
  cfg.churn_repartition =
      args.get_bool("churn-repartition", cfg.churn_repartition);
  cfg.churn_cut_growth =
      args.get_double("churn-cut-growth", cfg.churn_cut_growth);
  cfg.churn_check_interval =
      args.get_double("churn-check-interval", cfg.churn_check_interval);
  cfg.stab_tolerance = args.get_double("stab-tolerance", cfg.stab_tolerance);
  cfg.stab_time = args.get_double("stab-time", cfg.stab_time);
  cfg.stab_bound = args.get_double("stab-bound", cfg.stab_bound);
  cfg.obs_backend = args.get_string("obs-backend", cfg.obs_backend);
  cfg.obs_memory_kb = args.get_int("obs-memory-kb", cfg.obs_memory_kb);
}

graph::Graph build_topology(const ExperimentConfig& cfg) {
  const auto n = static_cast<graph::NodeId>(cfg.nodes);
  if (cfg.topology == "path") return graph::make_path(n);
  if (cfg.topology == "ring") return graph::make_ring(n);
  if (cfg.topology == "star") return graph::make_star(n);
  if (cfg.topology == "complete") return graph::make_complete(n);
  if (cfg.topology == "grid") return graph::make_grid(cfg.rows, cfg.cols);
  if (cfg.topology == "torus") return graph::make_torus(cfg.rows, cfg.cols);
  if (cfg.topology == "hypercube") return graph::make_hypercube(cfg.dims);
  if (cfg.topology == "tree") return graph::make_balanced_tree(cfg.arity, cfg.levels);
  if (cfg.topology == "er") return graph::make_connected_er(n, cfg.er_p, cfg.seed);
  throw ConfigError("unknown topology: " + cfg.topology);
}

core::SyncParams resolve_params(const ExperimentConfig& cfg) {
  const double mu_min = 14.0 * cfg.eps / (1.0 - cfg.eps);
  const double mu = cfg.mu > 0.0 ? cfg.mu : mu_min;
  const double h0 = cfg.h0 > 0.0 ? cfg.h0 : cfg.delay / mu;
  return core::SyncParams::with(cfg.delay, cfg.eps, mu, h0);
}

dyn::ChurnConfig resolve_churn(const ExperimentConfig& cfg) {
  dyn::ChurnConfig c;
  c.node_rate = cfg.churn_node_rate;
  c.edge_rate = cfg.churn_edge_rate;
  const double downtime =
      cfg.churn_downtime > 0.0 ? cfg.churn_downtime : 20.0 * cfg.delay;
  c.node_downtime = downtime;
  c.edge_downtime = downtime;
  c.node_fraction = cfg.churn_node_fraction;
  c.edge_fraction = cfg.churn_edge_fraction;
  c.extra_edges = cfg.churn_extra_edges;
  c.min_present = cfg.churn_min_present;
  // Let the wake flood converge before membership starts moving.
  c.t0 = cfg.churn_start > 0.0 ? cfg.churn_start : 4.0 * cfg.delay;
  c.t1 = cfg.churn_stop > 0.0 ? cfg.churn_stop : cfg.duration;
  c.seed = cfg.churn_seed != 0 ? cfg.churn_seed : cfg.seed ^ 0x636875726eULL;
  if (c.enabled()) c.check();
  return c;
}

core::FtGcsOptions resolve_ftgcs(const ExperimentConfig& cfg) {
  core::FtGcsOptions o;
  if (cfg.ftgcs_f < 0) throw ConfigError("--ftgcs-f must be >= 0");
  o.f = cfg.ftgcs_f;
  const std::string& m = cfg.ftgcs_filter;
  if (m == "both") {
    o.envelope_filter = true;
    o.trim = true;
  } else if (m == "envelope") {
    o.envelope_filter = true;
    o.trim = false;
  } else if (m == "trim") {
    o.envelope_filter = false;
    o.trim = true;
  } else if (m == "none") {
    o.envelope_filter = false;
    o.trim = false;
  } else {
    throw ConfigError("unknown --ftgcs-filter: " + m +
                      " (expected both|envelope|trim|none)");
  }
  return o;
}

dyn::DynGcsOptions resolve_dyn_gcs(const ExperimentConfig& cfg,
                                   const core::SyncParams& params) {
  dyn::DynGcsOptions o;
  // tau0: the slack granted to a fresh edge; 8 kappa spans the local-skew
  // ladder's first levels.  T_stab = tau0 / mu is the time the mu-bounded
  // catch-up rate needs to close a tau0 gap — the KLLO linear-convergence
  // figure — so by default the ramp expires exactly when an edge that
  // started tau0 apart can have converged.
  o.initial_tolerance =
      cfg.stab_tolerance > 0.0 ? cfg.stab_tolerance : 8.0 * params.kappa;
  o.stabilization_time =
      cfg.stab_time > 0.0 ? cfg.stab_time : o.initial_tolerance / params.mu;
  return o;
}

obs::HistoryConfig resolve_history(const ExperimentConfig& cfg) {
  obs::HistoryConfig h;
  try {
    h.backend = obs::parse_history_backend(cfg.obs_backend);
  } catch (const std::invalid_argument& e) {
    throw ConfigError(e.what());
  }
  if (cfg.obs_memory_kb <= 0) {
    throw ConfigError("--obs-memory-kb must be > 0");
  }
  h.memory_budget_bytes =
      static_cast<std::size_t>(cfg.obs_memory_kb) * 1024;
  return h;
}

namespace {

std::shared_ptr<sim::DriftPolicy> build_drift(const ExperimentConfig& cfg) {
  // Every named drift model maps onto an OscillatorSpec so the CLI, sweep
  // specs, and scenario tests construct byte-identical policies through
  // sim::make_oscillator.  Legacy cadences (10 T / 40 T / 80 T) and seed
  // offsets are preserved exactly when --drift-interval is absent.
  using Kind = sim::OscillatorSpec::Kind;
  sim::OscillatorSpec spec;
  spec.epsilon = cfg.eps;
  const double iv = cfg.drift_interval;
  if (cfg.drift == "walk") {
    spec.kind = Kind::kWalk;
    spec.interval = iv > 0.0 ? iv : 10.0 * cfg.delay;
    spec.seed = cfg.seed + 1;
  } else if (cfg.drift == "rwalk") {
    spec.kind = Kind::kClampedWalk;
    spec.interval = iv > 0.0 ? iv : 10.0 * cfg.delay;
    spec.step = cfg.drift_step > 0.0 ? cfg.drift_step : cfg.eps / 2.0;
    spec.seed = cfg.seed + 7;
  } else if (cfg.drift == "square") {
    spec.kind = Kind::kSquare;
    spec.interval = iv > 0.0 ? iv : 40.0 * cfg.delay;
    spec.fast_below = static_cast<sim::NodeId>(cfg.nodes / 2);
  } else if (cfg.drift == "sine") {
    spec.kind = Kind::kSine;
    spec.interval = iv > 0.0 ? iv : 80.0 * cfg.delay;
    spec.seed = cfg.seed + 2;
  } else if (cfg.drift == "const") {
    spec.kind = Kind::kConst;
  } else {
    throw ConfigError("unknown drift model: " + cfg.drift);
  }
  return std::shared_ptr<sim::DriftPolicy>(sim::make_oscillator(spec));
}

std::shared_ptr<sim::DelayPolicy> build_delays(const ExperimentConfig& cfg,
                                               const graph::Graph& g) {
  if (cfg.delays == "uniform") {
    return std::make_shared<sim::UniformDelay>(0.0, cfg.delay, cfg.seed + 3);
  }
  if (cfg.delays == "fixed") return std::make_shared<sim::FixedDelay>(cfg.delay);
  if (cfg.delays == "band") {
    return std::make_shared<sim::UniformDelay>(cfg.band_min * cfg.delay,
                                               cfg.delay, cfg.seed + 4);
  }
  if (cfg.delays == "bimodal") {
    return std::make_shared<sim::BimodalDelay>(0.1 * cfg.delay, cfg.delay, 0.05,
                                               cfg.seed + 5);
  }
  if (cfg.delays == "burst") {
    return std::make_shared<sim::BurstDelay>(0.1 * cfg.delay, cfg.delay,
                                             50.0 * cfg.delay, 10.0 * cfg.delay,
                                             cfg.seed + 6);
  }
  if (cfg.delays == "hiding") {
    auto dist = std::make_shared<std::vector<int>>(g.bfs_distances(0));
    return std::make_shared<sim::DirectionalDelay>(
        [dist](sim::NodeId from, sim::NodeId to) {
          return (*dist)[static_cast<std::size_t>(to)] >
                 (*dist)[static_cast<std::size_t>(from)];
        },
        0.0, cfg.delay);
  }
  throw ConfigError("unknown delay model: " + cfg.delays);
}

std::unique_ptr<sim::Node> build_node(const ExperimentConfig& cfg,
                                      const core::SyncParams& params,
                                      sim::NodeId v) {
  const std::string& a = cfg.algorithm;
  if (a == "aopt") {
    core::AoptOptions o;
    o.neighbor_silence_timeout = cfg.silence_timeout;
    o.influence_bound = cfg.influence_bound;
    return std::make_unique<core::AoptNode>(params, o);
  }
  if (a == "ftgcs") {
    core::AoptOptions o;
    o.neighbor_silence_timeout = cfg.silence_timeout;
    o.influence_bound = cfg.influence_bound;
    return std::make_unique<core::FtGcsNode>(params, o, resolve_ftgcs(cfg));
  }
  if (a == "kllo") {
    core::AoptOptions o;
    o.neighbor_silence_timeout = cfg.silence_timeout;
    o.influence_bound = cfg.influence_bound;
    return std::make_unique<dyn::DynGcsNode>(params, o,
                                             resolve_dyn_gcs(cfg, params));
  }
  if (a == "aopt-jump") return core::make_jump_aopt(params);
  if (a == "aopt-bounded") return core::make_bounded_frequency_aopt(params);
  if (a == "aopt-adaptive") {
    return std::make_unique<core::AdaptiveDelayAoptNode>(params);
  }
  if (a == "aopt-external") {
    if (v == 0) {
      return std::make_unique<core::ExternalReferenceNode>(params.h0);
    }
    return core::make_external_aopt(params);
  }
  if (a == "aopt-envelope") return core::make_envelope_aopt(params);
  if (a == "aopt-ticks") {
    return std::make_unique<sim::TickQuantizedNode>(core::make_aopt(params),
                                                    cfg.tick_frequency);
  }
  if (a == "max" || a == "max-rate") {
    baselines::MaxAlgorithmOptions o;
    o.jump = (a == "max");
    o.h0 = params.h0;
    return std::make_unique<baselines::MaxAlgorithmNode>(o);
  }
  if (a == "avg") {
    baselines::AveragingOptions o;
    o.h0 = params.h0;
    return std::make_unique<baselines::AveragingNode>(o);
  }
  if (a == "free") return std::make_unique<baselines::FreeRunningNode>();
  throw ConfigError("unknown algorithm: " + a);
}

}  // namespace

void check_run_shape(const ExperimentConfig& cfg) {
  if (!(cfg.duration > 0.0) || !std::isfinite(cfg.duration)) {
    char got[32];
    std::snprintf(got, sizeof got, "%g", cfg.duration);
    throw ConfigError(
        std::string("--duration must be a positive finite number, got ") +
        got);
  }
  if (cfg.shards < 0) {
    throw ConfigError("--shards must be >= 0 (0 = serial engine), got " +
                      std::to_string(cfg.shards));
  }
  if (cfg.min_shard_nodes < 0) {
    throw ConfigError("--shards-min-nodes must be >= 0 (0 = no clamp), got " +
                      std::to_string(cfg.min_shard_nodes));
  }
}

BuiltExperiment build_experiment(const ExperimentConfig& cfg) {
  check_run_shape(cfg);
  // Checked even when serial, so a bad name never passes silently.
  if (!graph::Partition::known_strategy(cfg.partition)) {
    throw ConfigError("unknown --partition: " + cfg.partition +
                      " (expected auto|block|ml)");
  }
  BuiltExperiment built;
  built.graph = std::make_unique<graph::Graph>(build_topology(cfg));
  built.params = resolve_params(cfg);

  // Churn resolves against the topology *before* the simulator snapshots
  // it: extend_universe appends the insertion-churn edges, and the sharded
  // engine's cut tables must cover them.
  const dyn::ChurnConfig churn_cfg = resolve_churn(cfg);
  if (churn_cfg.enabled()) {
    built.churn = dyn::ChurnPlan(churn_cfg).build(*built.graph);
  }

  const std::uint64_t fault_seed =
      cfg.fault_seed != 0 ? cfg.fault_seed : cfg.seed;
  if (!cfg.faults_file.empty()) {
    built.timeline = fault::FaultPlan::load_file(cfg.faults_file)
                         .instantiate(fault_seed, *built.graph);
  }

  sim::SimConfig scfg;
  scfg.wake_all_at_zero = cfg.wake_all;
  scfg.probe_interval = cfg.delay;
  built.simulator = std::make_unique<sim::Simulator>(*built.graph, scfg);
  if (cfg.shards > 0) {
    built.simulator->configure_shards(cfg.shards, cfg.partition,
                                      cfg.min_shard_nodes);
  }
  // After configure_shards: initial absences/downed links address the
  // final slot permutation and per-lane link views.
  if (!built.churn.empty()) built.churn.apply(*built.simulator);
  const core::SyncParams params = built.params;
  const fault::FaultTimeline& timeline = built.timeline;
  built.simulator->set_all_nodes(
      [&cfg, &params, &timeline, fault_seed](sim::NodeId v) {
        std::unique_ptr<sim::Node> node = build_node(cfg, params, v);
        if (const fault::ByzantineSpec* spec = timeline.byzantine_spec(v)) {
          // Per-node lie stream, derived from the fault seed only.
          const std::uint64_t node_seed =
              sim::SplitMix64(fault_seed ^
                              ((static_cast<std::uint64_t>(v) + 1) *
                               0x9e3779b97f4a7c15ULL))
                  .next();
          node = std::make_unique<fault::ByzantineNode>(std::move(node), *spec,
                                                        node_seed);
        }
        return node;
      });
  built.drift = build_drift(cfg);
  built.delay = build_delays(cfg, *built.graph);
  built.simulator->set_drift_policy(built.drift);
  if (!built.timeline.windows.empty()) {
    built.channel = std::make_shared<fault::ChannelFaultPolicy>(
        built.delay, built.timeline.windows, fault_seed ^ 0xc4a27e11u);
    built.simulator->set_delay_policy(built.channel);
  } else {
    built.simulator->set_delay_policy(built.delay);
  }
  return built;
}

}  // namespace tbcs::cli
