// The four named workloads and their measurement loops.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "cli/experiment_config.hpp"
#include "exec/run_spec.hpp"
#include "report.hpp"
#include "runner.hpp"

namespace perfbench {

const std::vector<std::string>& workload_names();

/// Single-simulation workloads: the experiment for `seed`.
tbcs::cli::ExperimentConfig simulation_config(const std::string& workload,
                                              std::uint64_t seed);

/// The ring fault sweep's specs.  Writes the fault-plan files into
/// `plan_dir` (which must exist).
std::vector<tbcs::exec::RunSpec> sweep_specs(const std::string& plan_dir);

struct MeasureOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir;  // scratch files (the sweep's fault plans)
  int min_runs = 3;
};

/// Runs the workload for opts.seconds and returns its record: with
/// trace = false the end-to-end metrics, with trace = true the per-layer
/// metrics (untraced and traced runs alternate; both are checked).
Record measure(const MeasureOptions& opts);

/// Counts one run into rec: it fails on any output-check failure, and on
/// a fingerprint that differs from `reference` (set by the first call).
void check_run(Record& rec, const RunOutcome& out,
               std::optional<Fingerprint>& reference, const char* label);

/// What each sweep spec must do: the length of its fault timeline.
struct SweepExpectation {
  std::vector<std::uint64_t> timeline_events;  // per spec
};

/// Counts one pooled sweep pass into rec: a run fails when it did not
/// complete, broke a skew bound, applied a different number of faults
/// than its timeline holds, or differs from the first pass (`reference`,
/// filled by the first call).
void check_sweep(Record& rec, const std::vector<tbcs::exec::RunSpec>& specs,
                 const std::vector<tbcs::exec::RunResult>& results,
                 const SweepExpectation& expect,
                 std::vector<tbcs::exec::RunResult>& reference);

/// Peak resident memory of this process, in MiB.
double peak_rss_mb();

}  // namespace perfbench
