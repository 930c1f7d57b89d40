// Parallel, deterministic experiment execution.
//
// SweepRunner takes a list of RunSpecs, runs each on its own Simulator
// instance on a worker thread, and returns results indexed by submission
// order.  Determinism contract: the result vector (values, order, derived
// seeds) is a pure function of (specs, base_seed) — the number of worker
// threads only changes wall-clock time.
//
// make_grid_specs() expands the 1-D/2-D × replicas sweep grids used by
// tbcs_sweep; apply_sweep_param() maps a sweepable parameter name onto an
// ExperimentConfig field.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "exec/run_spec.hpp"

namespace tbcs::exec {

struct SweepOptions {
  /// Worker threads (clamped to >= 1).  Does not affect results.
  int jobs = 1;

  /// Root of the per-run seed derivation (see derive_seed()).
  std::uint64_t base_seed = 1;

  /// Forwarded to cli::ExperimentRun (<= 0 disables the envelope audit).
  double audit_epsilon = 0.0;
};

class SweepRunner {
 public:
  explicit SweepRunner(SweepOptions opt = {}) : opt_(opt) {}

  /// Runs every spec; out[i] is spec i's result.  Build/run failures are
  /// recorded per-run (ok = false, error), never thrown.
  std::vector<RunResult> run(const std::vector<RunSpec>& specs) const;

  /// Runs one spec synchronously with the derived seed for `index`.
  static RunResult run_one(const RunSpec& spec, std::size_t index,
                           const SweepOptions& opt);

 private:
  SweepOptions opt_;
};

/// Parses a comma-separated list of numbers ("8,16,32").
std::vector<double> parse_values(const std::string& csv);

/// Sets one sweepable parameter on cfg.  Parameters: diameter (sets
/// nodes = value + 1; the topology is left untouched), nodes, eps, mu,
/// h0, delay, duration.  Throws cli::ConfigError on anything else.
void apply_sweep_param(cli::ExperimentConfig& cfg, const std::string& param,
                       double value);

struct SweepAxis {
  std::string param;
  std::vector<double> values;
};

/// Expands axis1 × (axis2 or nothing) × replicas into RunSpecs, in
/// row-major order (axis1 outermost, replica innermost).  Labels carry
/// the swept values plus a 0-based "replica" column.
std::vector<RunSpec> make_grid_specs(const cli::ExperimentConfig& base,
                                     const SweepAxis& axis1,
                                     const SweepAxis* axis2, int replicas);

}  // namespace tbcs::exec
