// Exact skew measurement (Definitions 3.1 / 3.2) and model-condition
// auditing (Conditions (1) and (2), Definition 5.6).
//
// All logical clocks are piecewise linear in real time with breakpoints
// only at simulation events; the maximum of a difference of piecewise
// linear functions over an interval is attained at a breakpoint.  Every
// figure (skews, per-distance profile, series, recovery classification)
// follows one of two sampling semantics:
//
//  * exact (sample_grid == 0) — every observer call is a sample.  The
//    serial engine calls the observer at every breakpoint, so the reported
//    maxima are exact, not approximations.
//
//  * grid (sample_grid > 0) — only the first call at or after each point
//    k * sample_grid is a sample (sim::GridCursor, the probe schedule's
//    arithmetic).  With SimConfig::probe_interval == sample_grid both
//    engines sample at the same instants, so every figure is identical
//    serial vs any --shards count; maxima fall short of exact by at most
//    skew_error_bound().
//
// Two scan engines serve the exact semantics:
//
//  * kFullRescan — the oracle: every sample scans all n nodes and all E
//    edges.  O(events * (n + E)).
//
//  * kIncremental (default) — certificate-based: per event, only the
//    touched node (Simulator::last_event()) is evaluated exactly, and a
//    set of upper-bound certificates (last exact extrema extrapolated at
//    the extreme observed clock rates, kinetic-tournament style) prove
//    that the skipped full scan could not have raised any running
//    maximum.  When a certificate expires — the bound reaches the current
//    maximum — the tracker falls back to one full rescan, which both
//    updates the results and re-anchors every certificate exactly.
//    Because running maxima are only ever written by the shared full-scan
//    code path, every reported figure is bit-identical to the oracle's.
//    Amortized cost per event is O(deg(touched node)) once the skew
//    process saturates.
//
//  * kAuditOracle — runs both engines and throws on any divergence
//    (--audit-oracle in the CLI); for validating the incremental engine.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "obs/history_store.hpp"
#include "sim/grid_cursor.hpp"
#include "sim/simulator.hpp"

namespace tbcs::analysis {

class SkewTracker {
 public:
  enum class Mode {
    kIncremental,  // certificate-based; falls back to full scans as needed
    kFullRescan,   // the O(n + E)-per-sample oracle
    kAuditOracle,  // both, asserting equality after every sample
  };

  struct Options {
    /// Scan engine (exact semantics; grid sampling always scans fully).
    Mode mode = Mode::kIncremental;

    /// Track the skew profile per hop distance (gradient property,
    /// Definition 5.6) at every sample.  O(n^2) per sample, and it forces
    /// a full scan per sample — enable only for small n.
    bool track_per_distance = false;

    /// Audit Condition (1) against this true epsilon (<= 0 disables).
    /// The upper envelope is anchored at the earliest wake time seen
    /// across all nodes, the lower envelope at each node's own t_v.
    double audit_epsilon = 0.0;

    /// Also audit each node against the per-node catch-up ceiling
    /// L_v(t) <= beta (t - t_v), the Condition (2) rate bound integrated
    /// from the node's wake (beta = (1+eps)(1+mu) for A^opt in rate
    /// mode; <= 0 disables).  Catches a late waker racing ahead faster
    /// than any legal catch-up while still under the system envelope.
    /// Not meaningful for jump-mode variants, which discontinuously
    /// adopt L^max at wake.
    double audit_beta = 0.0;

    /// Record a (t, global, local) time-series point at most every
    /// `series_interval` time units (0 = no series).
    double series_interval = 0.0;

    /// History backend for the recorded series (exact keeps every point;
    /// stair summarizes old history under a memory budget).
    obs::HistoryConfig history;

    /// When > 0, the grid semantics: sample ONLY on the fixed time grid
    /// k * sample_grid (k >= 1, sim::GridCursor::probe): the first observer
    /// call with t >= the next grid point is taken, all others are
    /// skipped, and every taken sample is recorded into the history
    /// stores.  Pair it with SimConfig::probe_interval == sample_grid so
    /// both engines deliver a sample at exactly every grid point (the
    /// serial probe events and the sharded probe barriers fire at
    /// bit-equal times), which keeps the sketch byte-identical serial vs
    /// any --shards count.  Maxima become grid maxima; the gap to the
    /// exact figures is bounded by skew_error_bound().  Disables the
    /// incremental engine (the grid is sparse, so the few scans are
    /// cheap) and ignores series_interval.
    double sample_grid = 0.0;

    /// Worst-case growth rate of the skew between two samples (per unit
    /// real time); skew_error_bound() = error_rate_span * sample_grid.
    /// For the continuous-rate A^opt this is
    /// (1+eps)(1+mu) - (1-eps): the fastest and slowest legal logical
    /// rates diverge no quicker.  <= 0 = unknown (bound reports NaN).
    double error_rate_span = 0.0;

    /// Ignore all samples before this time (lets experiments exclude the
    /// initialization flood when they study steady-state behavior).
    double warmup = 0.0;

    // ---- recovery-time probe (fault injection) ------------------------------
    // Enabled when recovery_global_bound > 0 and a fault has been noted via
    // note_fault().  A sample is "within bounds" when the instantaneous
    // global skew is <= recovery_global_bound and (if also > 0) the
    // instantaneous local skew is <= recovery_local_bound; recovery_time()
    // is the delay from the last noted fault to the first within-bounds
    // sample not followed by any out-of-bounds sample.  Callers set the bounds to the Thm 5.5 / 5.10
    // figures so "recovered" means "re-entered the paper's envelope".

    /// Global-skew re-entry threshold (<= 0 disables the probe).
    double recovery_global_bound = 0.0;

    /// Local-skew re-entry threshold (<= 0: global-only classification).
    double recovery_local_bound = 0.0;

    /// Classify recovery samples only on the fixed grid k * interval
    /// (<= 0: classify every sample).  Pair it with the same
    /// SimConfig::probe_interval so BOTH engines deliver a sample at
    /// exactly every grid point with exactly the events before it
    /// applied: the serial engine's per-event samples and the sharded
    /// engine's extra barriers then skip classification, and
    /// recovery_time() / stabilization_time() come out byte-identical
    /// serial vs any --shards count (at grid resolution).  tbcs_sim and
    /// the sweep runner set both knobs whenever a fault plan is active.
    double recovery_classify_interval = 0.0;

    /// Nodes excluded from every fold (skews, rates, envelope audits,
    /// per-distance profile).  Fault harnesses put the Byzantine set here:
    /// a liar's own clock is not part of the guarantee — only what it does
    /// to the correct subgraph is.  Ids out of range are ignored.
    std::vector<sim::NodeId> exclude;
  };

  struct Sample {
    double t = 0.0;
    double global_skew = 0.0;
    double local_skew = 0.0;
  };

  SkewTracker(const sim::Simulator& sim, Options opt);
  explicit SkewTracker(const sim::Simulator& sim);

  /// Installs this tracker as the per-event observer (serial engine);
  /// dyn::attach_dyn_observers picks per-event or per-window by engine.
  void attach(sim::Simulator& sim);

  /// Processes one sample at time t (called by the observer).
  void observe(const sim::Simulator& sim, double t);

  /// Processes one window-barrier sample: like observe(), but folds the
  /// whole touched-node set instead of Simulator::last_event().  The
  /// barrier grid and touched sets are shard-count invariant, and so is
  /// every tracker output.
  void observe_window(const sim::Simulator& sim, double t,
                      const std::vector<sim::Simulator::WindowTouch>& touched);

  // ---- results ------------------------------------------------------------

  /// max over sampled times of (max_v L_v - min_v L_v), awake nodes only.
  double max_global_skew() const { return max_global_skew_; }

  /// max over sampled times and edges {v,w} of |L_v - L_w|.
  double max_local_skew() const { return max_local_skew_; }

  /// max over sampled times and pairs at hop distance d of |L_v - L_w|;
  /// requires track_per_distance.
  double max_skew_at_distance(int d) const;
  int max_distance() const { return static_cast<int>(per_distance_.size()) - 1; }

  /// Largest violation of Condition (1) (plus the audit_beta catch-up
  /// ceiling when enabled):
  ///   max(L_v(t) - (1+eps)(t - t_0),
  ///       [beta audit] L_v(t) - beta (t - t_v),
  ///       (1-eps)(t - t_v) - L_v(t)) over samples,
  /// where t_0 is the earliest wake time across all nodes and t_v the
  /// node's own.  <= 0 means the envelope held at every sampled instant.
  double max_envelope_violation() const { return max_envelope_violation_; }

  /// Extremes of the instantaneous logical clock rate rho_v * h_v observed
  /// at sample times (for auditing Condition (2)).
  double min_logical_rate() const { return min_logical_rate_; }
  double max_logical_rate() const { return max_logical_rate_; }

  /// The recorded (t, global, local) series, materialized from the
  /// history backend: one entry per retained window (exact backend: one
  /// per recorded point, bit-identical to the pre-backend tracker; stair:
  /// older entries summarize whole windows by their max).
  const std::vector<Sample>& series() const;
  std::uint64_t samples_taken() const { return samples_; }

  /// The raw history stores behind series() (global / local skew).
  const obs::HistoryStore& global_history() const { return *hist_global_; }
  const obs::HistoryStore& local_history() const { return *hist_local_; }

  /// Worst-case gap between the reported skew maxima and the exact
  /// (every-breakpoint) figures.  0 under the exact semantics; under the
  /// grid semantics error_rate_span * sample_grid, or NaN without an
  /// error_rate_span.
  double skew_error_bound() const;

  /// Bytes held by the series history stores.
  std::size_t history_memory_bytes() const {
    return hist_global_->memory_bytes() + hist_local_->memory_bytes();
  }

  /// Full O(n + E) scans actually executed (== samples_taken() for the
  /// oracle; the incremental engine's figure of merit is how far this
  /// stays below it).
  std::uint64_t full_scans() const { return full_scans_; }

  // ---- recovery-time probe --------------------------------------------------

  /// Tells the probe a fault was applied at time t (fault schedulers call
  /// this for every applied fault); resets any tentative recovery point.
  void note_fault(double t);

  /// note_fault() plus an anchor for the self-stabilization figure: the
  /// scramble set this node's state arbitrarily, and stabilization_time()
  /// measures from the *last* scramble (later ordinary faults reset the
  /// recovery point but not this anchor).
  void note_scramble(double t);

  /// Real time of the last fault noted; NaN if none.
  double last_fault_time() const;

  /// Time from the last noted fault until skew re-entered the configured
  /// bounds for good (no later sample outside them).  NaN while out of
  /// bounds, never recovered, or no fault was noted.  0 when the bounds
  /// were never left after the last fault.
  double recovery_time() const;

  /// Self-stabilization time: from the last noted scramble until the final
  /// re-entry into the *gradient* envelope (recovery_local_bound; the
  /// global bound when no local bound is configured).  Classified on the
  /// same samples as recovery_time() but against the local bound only: a
  /// scramble can translate one node's clock permanently above the rest —
  /// logical clocks are monotone and a trimmed estimate layer refuses
  /// single-source catch-up by design — so the global offset is not
  /// recoverable, while the gradient (local skew) guarantee is.  NaN when
  /// no scramble was noted or the gradient envelope was never re-entered.
  double stabilization_time() const;

 private:
  void do_sample(const sim::Simulator& sim, double t,
                 const sim::Simulator::WindowTouch* touched,
                 std::size_t n_touched);
  void full_scan(const sim::Simulator& sim, double t);
  void touch(const sim::Simulator& sim, sim::NodeId v, bool woke, double t);
  void assert_matches_oracle(double t) const;
  bool recovery_probe_active() const {
    return have_fault_ && opt_.recovery_global_bound > 0.0;
  }
  bool excluded(sim::NodeId v) const {
    return !excluded_.empty() && excluded_[static_cast<std::size_t>(v)] != 0;
  }
  /// Certificate proof that the current skews are inside the recovery
  /// bounds (incremental engine; certificates are upper bounds on the
  /// instantaneous values, so "bound small enough" is a proof).
  bool provably_within_recovery_bounds() const;
  void classify_recovery_sample(double t, bool scanned_exactly);

  Options opt_;
  std::vector<char> excluded_;  // empty when Options::exclude is empty
  std::vector<std::vector<int>> distances_;  // filled iff track_per_distance
  std::vector<double> per_distance_;
  std::vector<double> logical_scratch_;
  double max_global_skew_ = 0.0;
  double max_local_skew_ = 0.0;
  double max_envelope_violation_ = -sim::kInfinity;
  double min_logical_rate_ = sim::kInfinity;
  double max_logical_rate_ = -sim::kInfinity;
  /// Series history, one store per component; series() materializes the
  /// zipped view on demand (both stores see identical append times, so
  /// their window structures always align index-for-index).
  std::unique_ptr<obs::HistoryStore> hist_global_;
  std::unique_ptr<obs::HistoryStore> hist_local_;
  mutable std::vector<Sample> series_cache_;
  mutable bool series_dirty_ = false;
  double earliest_start_ = sim::kInfinity;
  /// Which calls are samples: every call past warmup (exact) or the
  /// sample_grid points.
  sim::GridCursor sampling_;
  /// Series points: every sample under the grid semantics, else the
  /// warmup + k * series_interval cadence (never when the interval is 0).
  sim::GridCursor series_;
  /// Recovery-classification points: every sample, or the grid
  /// k * recovery_classify_interval (global time, not time-since-fault).
  sim::GridCursor classify_;
  std::uint64_t samples_ = 0;
  std::uint64_t full_scans_ = 0;

  // ---- recovery-probe state -------------------------------------------------
  bool have_fault_ = false;
  double last_fault_t_ = 0.0;
  bool have_scramble_ = false;
  double last_scramble_t_ = 0.0;
  double recovery_candidate_ = 0.0;  // guarded by have_candidate_
  bool have_candidate_ = false;
  /// Gradient-envelope re-entry point for stabilization_time(): same
  /// classification cadence, local bound only.
  double gradient_candidate_ = 0.0;  // guarded by have_gradient_candidate_
  bool have_gradient_candidate_ = false;
  double cur_global_ = 0.0;  // instantaneous values as of the last full scan
  double cur_local_ = 0.0;

  // ---- incremental-engine state -------------------------------------------
  // Certificates: exact values from the last full scan, extrapolated with
  // the extreme observed rates plus a per-advance guard that dominates the
  // floating-point drift of the extrapolation.  Invariant: *_bound_ is >=
  // the value the oracle would compute at the current time, so a bound
  // that stays below the corresponding running maximum proves the skipped
  // scan was a no-op.
  std::shared_ptr<const graph::Graph::Csr> csr_;  // for touch-local edge folds
  bool incremental_ = false;
  bool scanned_once_ = false;
  double bound_t_ = 0.0;        // time the bounds were last advanced to
  double hi_bound_ = -sim::kInfinity;   // >= max_v L_v(t)
  double lo_bound_ = sim::kInfinity;    // <= min_v L_v(t) over awake nodes
  double local_bound_ = -sim::kInfinity;
  double env_bound_ = -sim::kInfinity;
  double rate_hi_ = 0.0;        // >= every current logical rate
  double rate_lo_ = 0.0;        // <= every current logical rate
  bool any_awake_seen_ = false;

  std::unique_ptr<SkewTracker> oracle_;  // kAuditOracle only
};

}  // namespace tbcs::analysis
