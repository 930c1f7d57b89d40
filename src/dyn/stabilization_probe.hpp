// Per-inserted-edge stabilization-time measurement.
//
// For every link insertion the probe records the skew across the new edge
// at the first observed instant, then watches |L_u - L_v| at observer
// cadence; the edge is *stabilized* at the first sample at or below
// `bound` that no later in-window sample exceeds (same for-good
// semantics as SkewTracker's recovery probe).  Each record also carries
// the KLLO-style prediction skew_at_insert / mu — the time the
// mu-bounded catch-up rate needs to close the initial gap, the
// Theta(s/mu) linear-convergence figure the dynamic-gradient analyses
// bound stabilization by — so experiments can tabulate measured against
// predicted.
//
// The probe shares the simulator's single observer slot with SkewTracker;
// attach_dyn_observers composes the two — one barrier-driven callback
// when sharded, the per-event observer otherwise.  Everything the probe
// reports derives from barrier-time clock reads, which are shard-count
// invariant.
#pragma once

#include <cmath>
#include <limits>
#include <memory>
#include <vector>

#include "analysis/skew_tracker.hpp"
#include "obs/history_store.hpp"
#include "dyn/churn_plan.hpp"
#include "sim/grid_cursor.hpp"
#include "sim/simulator.hpp"

namespace tbcs::dyn {

class StabilizationProbe {
 public:
  struct Options {
    /// Stabilized when |L_u - L_v| <= bound (and stays there while the
    /// edge remains live).  Required > 0 for the probe to do anything.
    double bound = 0.0;
    /// For the prediction skew_at_insert / mu; <= 0 leaves it NaN.
    double mu = 0.0;
    /// History backend.  Exact (default) retains every Record forever —
    /// bit-identical to the pre-backend probe.  Stair folds finished
    /// records (t past t_end) into running aggregates plus a bounded
    /// (t_insert, stabilization_time) history store, so memory stays
    /// O(live edges + budget) under sustained churn; records() then only
    /// exposes the unfolded suffix, while the aggregate accessors keep
    /// reporting over everything.
    obs::HistoryConfig history{};

    /// When > 0, sample only on the fixed time grid k * sample_grid
    /// (first observer call at/after each grid point, sim::GridCursor;
    /// pair with SimConfig::probe_interval for engine invariance).
    /// Stabilization figures coarsen to grid resolution.
    double sample_grid = 0.0;
  };

  struct Record {
    sim::NodeId u = sim::kInvalidNode;
    sim::NodeId v = sim::kInvalidNode;
    double t_insert = 0.0;
    double t_end = 0.0;           // edge removed again (inf: stayed live)
    double skew_at_insert = 0.0;  // first sample at/after t_insert
    bool sampled = false;         // saw at least one sample while live
    double t_stable = 0.0;        // guarded by `stable`
    bool stable = false;
    /// KLLO linear-convergence figure skew_at_insert / mu (NaN if mu
    /// was not given or no sample landed in the live window).
    double predicted = 0.0;

    double stabilization_time() const {
      return stable ? t_stable - t_insert
                    : std::numeric_limits<double>::quiet_NaN();
    }
  };

  explicit StabilizationProbe(Options opt);

  /// Registers a (possibly future) insertion of {u, v} live on
  /// [t, t_end).  Benches call this directly; preload() derives the
  /// windows from a churn schedule.
  void note_insert(sim::NodeId u, sim::NodeId v, double t,
                   double t_end = std::numeric_limits<double>::infinity());

  /// Registers every kLinkUp in the schedule, paired with the next
  /// kLinkDown of the same edge (or an open end).  Call once before the
  /// run.
  void preload(const ChurnSchedule& schedule);

  /// Samples every live registered edge at time t; drives the
  /// stay-within-bounds classification.
  void observe(const sim::Simulator& sim, double t);

  // ---- results ---------------------------------------------------------------
  /// Retained records: everything in exact mode, the unfolded suffix in
  /// stair mode (use the aggregate accessors for whole-run figures).
  const std::vector<Record>& records() const { return records_; }
  std::size_t insertions() const { return folded_count_ + records_.size(); }
  std::size_t stabilized() const;
  /// Mean / max stabilization time over stabilized records (NaN if none).
  double mean_stabilization_time() const;
  double max_stabilization_time() const;
  /// Mean predicted time over records with a valid prediction (NaN: none).
  double mean_predicted_time() const;

  /// Stair mode: bounded (t_insert, stabilization_time) history of folded
  /// stabilized records; nullptr in exact mode.
  const obs::HistoryStore* stabilization_history() const {
    return history_.get();
  }
  /// Bytes retained by the probe (records + history store).
  std::size_t memory_bytes() const {
    return records_.size() * sizeof(Record) +
           (history_ ? history_->memory_bytes() : 0);
  }

 private:
  /// Stair mode: folds the finished prefix [0, live_floor_) into the
  /// aggregates and drops it once it is large enough to matter.
  void compact_finished_prefix();

  Options opt_;
  std::vector<Record> records_;
  std::size_t live_floor_ = 0;  // records before this are past t_end
  sim::GridCursor grid_;        // every call when sample_grid == 0

  // ---- folded aggregates (stair mode) -------------------------------------
  // Identical to re-folding the dropped records: every accessor is the
  // combination of these and the retained suffix.
  bool bounded_ = false;
  std::size_t folded_count_ = 0;         // records dropped
  std::size_t folded_stable_ = 0;        // ... of which stabilized
  double folded_stab_sum_ = 0.0;         // sum of stabilization_time()
  double folded_stab_max_ = std::numeric_limits<double>::quiet_NaN();
  double folded_pred_sum_ = 0.0;         // sum of valid predictions
  std::size_t folded_pred_count_ = 0;
  std::unique_ptr<obs::HistoryStore> history_;
};

/// Installs tracker and/or probe as the simulator's observer in one
/// composed callback: the window observer when the simulator is sharded,
/// the per-event observer otherwise.  This is the one place that makes
/// that choice (cli::ExperimentRun attaches through it).  Either pointer
/// may be null.  Both must outlive the simulator's runs.
void attach_dyn_observers(sim::Simulator& sim,
                          analysis::SkewTracker* tracker,
                          StabilizationProbe* probe);

}  // namespace tbcs::dyn
