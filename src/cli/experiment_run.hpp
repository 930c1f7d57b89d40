// The one run path for a configured experiment, shared by tbcs_sim,
// exec::SweepRunner and the equivalence tests.  Construct it after any
// record/replay policy or flight recorder is installed: it derives the
// diameter and paper bounds, builds the skew tracker (plus, on churned
// runs, the per-inserted-edge stabilization probe) from the config and
// attaches them.  run() paces the simulator to cfg.duration: the fault
// scheduler under a fault plan (its listener anchors the recovery probe),
// else the churn driver under churn, else plain run_until, and then fills
// the run's churn/fault report.
#pragma once

#include <memory>

#include "analysis/counters.hpp"
#include "analysis/skew_tracker.hpp"
#include "cli/experiment_config.hpp"
#include "dyn/churn_driver.hpp"
#include "dyn/stabilization_probe.hpp"
#include "fault/fault_scheduler.hpp"

namespace tbcs::cli {

class ExperimentRun {
 public:
  /// The only choices left to callers; the rest follows from the config.
  struct Options {
    double audit_epsilon = 0.0;  // Cor 5.3 envelope audit (<= 0: off)
    bool series = false;         // exact backend: a point every duration/200
    bool per_distance = false;   // per-distance profile (O(n^2) memory)
    bool audit_oracle = false;   // full-rescan oracle beside the tracker
  };

  /// The observers stay attached to built's simulator: keep `built`
  /// alive, and do not run its simulator, past this object's lifetime.
  ExperimentRun(BuiltExperiment& built, const ExperimentConfig& cfg,
                Options opt);

  /// Runs the simulator to cfg.duration, then fills report().
  void run();

  /// Exact up to n = 65,536, the two-sweep estimate above.
  int diameter() const { return diameter_; }
  double global_bound() const { return global_bound_; }  // Thm 5.5
  double local_bound() const { return local_bound_; }    // Thm 5.10
  const obs::HistoryConfig& history() const { return history_; }
  bool stair() const {
    return history_.backend == obs::HistoryConfig::Backend::kStair;
  }

  const analysis::SkewTracker& tracker() const { return *tracker_; }
  /// Null unless churn is on / a fault plan / the churn driver paced it.
  const dyn::StabilizationProbe* probe() const { return probe_.get(); }
  const fault::FaultScheduler* faults() const { return faults_.get(); }
  const dyn::ChurnDriver* churn_driver() const { return driver_.get(); }
  /// The churn and fault figures of the finished run (empty before run()).
  const analysis::RunReport& report() const { return report_; }

 private:
  BuiltExperiment& built_;
  const ExperimentConfig cfg_;
  const obs::HistoryConfig history_;
  int diameter_ = 0;
  double global_bound_ = 0.0;
  double local_bound_ = 0.0;
  std::unique_ptr<analysis::SkewTracker> tracker_;
  std::unique_ptr<dyn::StabilizationProbe> probe_;
  std::unique_ptr<fault::FaultScheduler> faults_;
  std::unique_ptr<dyn::ChurnDriver> driver_;
  analysis::RunReport report_;
};

}  // namespace tbcs::cli
