// One experiment run, driven through the public API the way tbcs_sim and
// exec::SweepRunner::run_one drive it: build, attach the skew tracker (and
// the stabilization probe on churned runs), initialize, then run under
// fault::FaultScheduler, dyn::ChurnDriver or plain run_until.  A traced run
// additionally swaps in the pass-through decorators and records spans
// over the timed part.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cli/experiment_config.hpp"
#include "exec/run_spec.hpp"
#include "tracer.hpp"

namespace perfbench {

/// The simulated statistics a run must reproduce exactly: same config and
/// seed give the same fingerprint, traced or not.
struct Fingerprint {
  std::uint64_t events = 0;
  std::uint64_t broadcasts = 0;
  std::uint64_t delivered = 0;
  std::uint64_t dropped = 0;
  std::uint64_t timer_arms = 0;
  std::uint64_t timer_cancels = 0;
  std::uint64_t queue_pushes = 0;
  std::uint64_t queue_peak = 0;
  double global_skew = 0.0;
  double local_skew = 0.0;

  bool operator==(const Fingerprint&) const = default;
  /// JSON object; skews as exact hex floats plus a readable decimal.
  std::string to_json() const;
};

/// The fields exec::RunResult carries (it has no timer_arms).
bool same_as_run_result(const Fingerprint& fp, const tbcs::exec::RunResult& r);

enum class Wiring {
  kTool,   // tbcs_sim's observer wiring (series every duration / 200)
  kSweep,  // exec::SweepRunner::run_one's wiring (no series)
};

struct RunOptions {
  bool traced = false;
  int sample_shift = 4;  // traced runs time one top-level span in 16
  Wiring wiring = Wiring::kTool;
  double audit_epsilon = 0.0;  // <= 0: no envelope audit
};

struct RunOutcome {
  Fingerprint fp;

  // ---- wall clock ---------------------------------------------------------
  double setup_s = 0.0;  // build + observers + run_until(0)
  double init_s = 0.0;   // run_until(0) alone
  double sim_s = 0.0;    // the timed part after initialization
  double cpu_s = 0.0;    // process CPU time during the timed part
  double traced_cpu_s = 0.0;  // process CPU time during init + timed part
  std::uint64_t sim_events = 0;  // events processed in the timed part

  // ---- checks ---------------------------------------------------------------
  int diameter = 0;
  double global_bound = 0.0;
  double local_bound = 0.0;
  double envelope_violation = 0.0;
  std::uint64_t faults_applied = 0;
  std::uint64_t timeline_events = 0;
  /// Empty when every output check passed.
  std::vector<std::string> failures;

  // ---- layer counters --------------------------------------------------------
  int lanes = 0;  // effective shard count (0 = serial engine)
  std::uint64_t ladder_resorts = 0;
  std::uint64_t ladder_spills = 0;
  std::uint64_t samples = 0;
  std::uint64_t full_scans = 0;
  std::uint64_t history_bytes = 0;
  std::uint64_t churn_ops = 0;
  std::uint64_t repartitions = 0;
  double live_cut_fraction = 0.0;
  std::uint64_t cut_edges = 0;
  double imbalance = 0.0;

  // ---- traced runs only -------------------------------------------------------
  double graph_build_s = 0.0;      // cli::build_topology on its own
  double graph_partition_s = 0.0;  // graph::Partition::make on its own
  SpanTable spans{};  // over run_until(0) and the timed part
};

/// Runs cfg.  `cfg.seed` is used as given.  Never throws for a failing
/// output check (it lands in RunOutcome::failures); throws on a config
/// the benchmark cannot drive.
RunOutcome run_experiment(const tbcs::cli::ExperimentConfig& cfg,
                          const RunOptions& opt);

}  // namespace perfbench
