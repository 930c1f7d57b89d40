#include "analysis/skew_tracker.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>

namespace tbcs::analysis {

namespace {

// Added to every certificate on each extrapolation step / exact fold.  The
// certificates only need to stay >= the value the oracle would compute; the
// guard dominates the few-ulp floating-point drift of `value + rate * dt`
// against the oracle's direct evaluation (quantities are O(10^6) at most,
// so one step drifts by no more than ~1e-9).  The inflation it accumulates
// is reset at every full scan.
constexpr double kCertificateGuard = 1e-9;

}  // namespace

SkewTracker::SkewTracker(const sim::Simulator& sim)
    : SkewTracker(sim, Options()) {}

SkewTracker::SkewTracker(const sim::Simulator& sim, Options opt) : opt_(opt) {
  const auto n = static_cast<std::size_t>(sim.num_nodes());
  logical_scratch_.resize(n);
  if (!opt_.exclude.empty()) {
    excluded_.assign(n, 0);
    for (const sim::NodeId v : opt_.exclude) {
      if (v >= 0 && static_cast<std::size_t>(v) < n) {
        excluded_[static_cast<std::size_t>(v)] = 1;
      }
    }
  }
  if (opt_.track_per_distance) {
    distances_ = sim.topology().all_pairs_distances();
    per_distance_.assign(static_cast<std::size_t>(sim.topology().diameter()) + 1, 0.0);
  }
  hist_global_ = obs::make_history_store(opt_.history);
  hist_local_ = obs::make_history_store(opt_.history);
  if (opt_.sample_grid > 0.0) {
    // Grid semantics: grid points from the first one not inside warmup;
    // every grid sample is a series point.
    sampling_ = sim::GridCursor::probe(opt_.sample_grid, opt_.warmup);
  } else {
    sampling_ = sim::GridCursor(opt_.warmup, 0.0);  // every call past warmup
    series_ = opt_.series_interval > 0.0
                  ? sim::GridCursor(opt_.warmup, opt_.series_interval)
                  : sim::GridCursor::never();
  }
  if (opt_.recovery_classify_interval > 0.0) {
    classify_ = sim::GridCursor::probe(opt_.recovery_classify_interval);
  }
  incremental_ = opt_.mode != Mode::kFullRescan && opt_.sample_grid <= 0.0;
  if (incremental_) csr_ = sim.topology().csr();
  if (opt_.mode == Mode::kAuditOracle) {
    Options oracle_opt = opt_;
    oracle_opt.mode = Mode::kFullRescan;
    oracle_ = std::unique_ptr<SkewTracker>(new SkewTracker(sim, oracle_opt));
  }
}

void SkewTracker::attach(sim::Simulator& sim) {
  sim.set_observer([this](const sim::Simulator& s, double t) { observe(s, t); });
}

const std::vector<SkewTracker::Sample>& SkewTracker::series() const {
  if (series_dirty_) {
    series_cache_.clear();
    const auto wg = hist_global_->windows();
    const auto wl = hist_local_->windows();
    series_cache_.reserve(wg.size());
    for (std::size_t i = 0; i < wg.size(); ++i) {
      // Both stores ingest identical append times, so window i covers the
      // same samples in each; a window reports its covered max (exact
      // backend: singleton windows, i.e. the raw recorded points).
      series_cache_.push_back(Sample{wg[i].t_hi, wg[i].max,
                                     i < wl.size() ? wl[i].max : 0.0});
    }
    series_dirty_ = false;
  }
  return series_cache_;
}

double SkewTracker::skew_error_bound() const {
  if (opt_.sample_grid <= 0.0) return 0.0;
  if (opt_.error_rate_span <= 0.0) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  // Between consecutive grid samples the skew can drift by at most
  // rate_span per unit time for sample_grid time units; the maximum of a
  // piecewise-linear function over the skipped interval exceeds its
  // grid-endpoint values by no more than that.
  return opt_.error_rate_span * opt_.sample_grid;
}

double SkewTracker::max_skew_at_distance(int d) const {
  assert(opt_.track_per_distance);
  if (d < 0 || d >= static_cast<int>(per_distance_.size())) return 0.0;
  return per_distance_[static_cast<std::size_t>(d)];
}

void SkewTracker::observe(const sim::Simulator& sim, double t) {
  // The one-touched-node contract of the incremental engine: fold exactly
  // what the triggering event changed.
  const sim::Simulator::LastEvent& le = sim.last_event();
  sim::Simulator::WindowTouch buf[2];
  std::size_t n = 0;
  if (le.node != sim::kInvalidNode) {
    buf[n++] = sim::Simulator::WindowTouch{le.node, le.woke};
  }
  if (le.node2 != sim::kInvalidNode) {
    buf[n++] = sim::Simulator::WindowTouch{le.node2, false};
  }
  do_sample(sim, t, buf, n);
}

void SkewTracker::observe_window(
    const sim::Simulator& sim, double t,
    const std::vector<sim::Simulator::WindowTouch>& touched) {
  do_sample(sim, t, touched.data(), touched.size());
}

void SkewTracker::do_sample(const sim::Simulator& sim, double t,
                            const sim::Simulator::WindowTouch* touched,
                            std::size_t n_touched) {
  // Warmup, and under the grid semantics every call but the first at/after
  // each grid point, end here.  The probe event (serial) / probe barrier
  // (sharded) at exactly the grid time is that sample in both engines, so
  // everything downstream is engine-invariant.  The early return is what
  // makes large-n runs affordable: all other events cost one comparison.
  if (!sampling_.due(t)) return;
  ++samples_;

  bool scanned_exactly = false;
  if (!incremental_) {
    full_scan(sim, t);
    scanned_exactly = true;
  } else {
    // Advance the certificates from bound_t_ to t: every logical clock is
    // linear between events with a rate inside [rate_lo_, rate_hi_], so the
    // extrema drift no faster than these envelopes.
    const double dt = t > bound_t_ ? t - bound_t_ : 0.0;
    if (dt > 0.0 && any_awake_seen_) {
      hi_bound_ = hi_bound_ + rate_hi_ * dt + kCertificateGuard;
      lo_bound_ = lo_bound_ + rate_lo_ * dt - kCertificateGuard;
      local_bound_ =
          local_bound_ + (rate_hi_ - rate_lo_) * dt + kCertificateGuard;
      if (opt_.audit_epsilon > 0.0) {
        // Upper violations grow at rate_v - (1+eps) (and rate_v - beta),
        // lower violations at (1-eps) - rate_v; never shrink the bound.
        double growth = std::max(rate_hi_ - (1.0 + opt_.audit_epsilon),
                                 (1.0 - opt_.audit_epsilon) - rate_lo_);
        if (opt_.audit_beta > 0.0) {
          growth = std::max(growth, rate_hi_ - opt_.audit_beta);
        }
        growth = std::max(growth, 0.0);
        env_bound_ = env_bound_ + growth * dt + kCertificateGuard;
      }
    }
    bound_t_ = t;

    // Fold the touched nodes exactly: only they can have moved
    // discontinuously since the last sample.
    for (std::size_t i = 0; i < n_touched; ++i) {
      touch(sim, touched[i].node, touched[i].woke, t);
    }

    // A full scan is needed exactly when some certificate no longer proves
    // the corresponding running maximum unbeaten, or when a grid output
    // (series / per-distance profile) wants exact values at this t.
    bool need = !scanned_once_ || !any_awake_seen_;
    if (!need) {
      need = hi_bound_ - lo_bound_ >= max_global_skew_;
      if (!need) need = local_bound_ >= max_local_skew_;
      if (!need && opt_.audit_epsilon > 0.0) {
        need = env_bound_ >= max_envelope_violation_;
      }
    }
    if (!need) need = series_.due(t) || opt_.track_per_distance;
    // Recovery probe: a sample the certificates cannot prove within bounds
    // must be classified exactly, so it forces a scan.
    if (!need && recovery_probe_active() && classify_.due(t) &&
        !provably_within_recovery_bounds()) {
      need = true;
    }
    if (need) {
      full_scan(sim, t);
      scanned_exactly = true;
    }
  }

  if (recovery_probe_active() && classify_.due(t)) {
    classify_recovery_sample(t, scanned_exactly);
  }
  // Advance past t even when the probe is dormant (no fault noted yet).
  classify_.pass(t);
  sampling_.pass(t);

  if (oracle_) {
    oracle_->do_sample(sim, t, touched, n_touched);
    assert_matches_oracle(t);
  }
}

void SkewTracker::note_fault(double t) {
  have_fault_ = true;
  last_fault_t_ = std::max(last_fault_t_, t);
  have_candidate_ = false;  // recovery is measured from the *last* fault
  have_gradient_candidate_ = false;
  if (oracle_) oracle_->note_fault(t);
}

void SkewTracker::note_scramble(double t) {
  note_fault(t);  // already forwards to the oracle
  have_scramble_ = true;
  last_scramble_t_ = std::max(last_scramble_t_, t);
}

double SkewTracker::last_fault_time() const {
  return have_fault_ ? last_fault_t_
                     : std::numeric_limits<double>::quiet_NaN();
}

double SkewTracker::recovery_time() const {
  if (!have_fault_ || !have_candidate_) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  return std::max(0.0, recovery_candidate_ - last_fault_t_);
}

double SkewTracker::stabilization_time() const {
  if (!have_scramble_ || !have_gradient_candidate_) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  return std::max(0.0, gradient_candidate_ - last_scramble_t_);
}

bool SkewTracker::provably_within_recovery_bounds() const {
  if (!scanned_once_ || !any_awake_seen_) return false;
  if (hi_bound_ - lo_bound_ > opt_.recovery_global_bound) return false;
  if (opt_.recovery_local_bound > 0.0 &&
      local_bound_ > opt_.recovery_local_bound) {
    return false;
  }
  return true;
}

void SkewTracker::classify_recovery_sample(double t, bool scanned_exactly) {
  // Without an exact scan this sample was proven within bounds by the
  // certificates (observe() forces a scan otherwise), so the exact values
  // would agree — which is what keeps both engines' classifications, and
  // hence recovery_time(), bit-identical.
  bool within = true;
  // Gradient-only classification for stabilization_time(): a scramble can
  // leave a permanent global offset (monotone clocks; trimmed adoption
  // refuses single-source catch-up), so self-stabilization is judged
  // against the local-skew envelope alone.
  bool gradient_within = true;
  if (scanned_exactly) {
    within = cur_global_ <= opt_.recovery_global_bound;
    const bool have_local = opt_.recovery_local_bound > 0.0;
    if (within && have_local) {
      within = cur_local_ <= opt_.recovery_local_bound;
    }
    gradient_within =
        have_local ? cur_local_ <= opt_.recovery_local_bound : within;
  }
  if (!within) {
    have_candidate_ = false;
  } else if (!have_candidate_) {
    recovery_candidate_ = t;
    have_candidate_ = true;
  }
  if (!gradient_within) {
    have_gradient_candidate_ = false;
  } else if (!have_gradient_candidate_) {
    gradient_candidate_ = t;
    have_gradient_candidate_ = true;
  }
}

void SkewTracker::touch(const sim::Simulator& sim, sim::NodeId v, bool woke,
                        double t) {
  if (excluded(v) || !sim.awake(v)) return;
  any_awake_seen_ = true;
  const double L = sim.logical(v);
  if (!(L <= hi_bound_)) hi_bound_ = L + kCertificateGuard;
  if (!(L >= lo_bound_)) lo_bound_ = L - kCertificateGuard;

  const double rate = sim.node(v).rate_multiplier() * sim.clock(v).rate();
  min_logical_rate_ = std::min(min_logical_rate_, rate);
  max_logical_rate_ = std::max(max_logical_rate_, rate);
  if (!(rate <= rate_hi_)) rate_hi_ = rate;
  if (!(rate >= rate_lo_)) rate_lo_ = rate;

  for (const graph::Graph::Arc* a = csr_->begin(v); a != csr_->end(v); ++a) {
    if (excluded(a->to) || !sim.link_up(a->edge) || !sim.awake(a->to)) continue;
    const double d = std::abs(L - sim.logical(a->to));
    if (!(d <= local_bound_)) local_bound_ = d + kCertificateGuard;
  }

  if (opt_.audit_epsilon > 0.0) {
    if (woke) {
      earliest_start_ = std::min(earliest_start_, sim.clock(v).start_time());
    }
    const double eps = opt_.audit_epsilon;
    const double tv = sim.clock(v).start_time();
    double upper_violation = L - (1.0 + eps) * (t - earliest_start_);
    if (opt_.audit_beta > 0.0) {
      upper_violation =
          std::max(upper_violation, L - opt_.audit_beta * (t - tv));
    }
    const double lower_violation = (1.0 - eps) * (t - tv) - L;
    const double violation = std::max(upper_violation, lower_violation);
    if (!(violation <= env_bound_)) env_bound_ = violation + kCertificateGuard;
  }
}

// The oracle pass.  This is the only code that writes the running maxima,
// in both engines — the incremental engine merely proves most calls
// redundant — so its fold order and arithmetic are the single source of
// truth for every reported figure.
void SkewTracker::full_scan(const sim::Simulator& sim, double t) {
  ++full_scans_;
  const sim::NodeId n = sim.num_nodes();
  double lo = sim::kInfinity;
  double hi = -sim::kInfinity;
  double cur_rate_lo = sim::kInfinity;
  double cur_rate_hi = -sim::kInfinity;
  double cur_env = -sim::kInfinity;
  bool any_awake = false;
  if (opt_.audit_epsilon > 0.0) {
    // The system envelope is anchored at the earliest wake across all
    // nodes; fold every awake node in before auditing any of them.
    for (sim::NodeId v = 0; v < n; ++v) {
      if (!excluded(v) && sim.awake(v)) {
        earliest_start_ = std::min(earliest_start_, sim.clock(v).start_time());
      }
    }
  }
  for (sim::NodeId v = 0; v < n; ++v) {
    if (excluded(v) || !sim.awake(v)) {
      logical_scratch_[static_cast<std::size_t>(v)] = -sim::kInfinity;
      continue;
    }
    any_awake = true;
    const double L = sim.logical(v);
    logical_scratch_[static_cast<std::size_t>(v)] = L;
    lo = std::min(lo, L);
    hi = std::max(hi, L);

    // Rate audit: instantaneous logical rate = rho_v * h_v.
    const double rate = sim.node(v).rate_multiplier() * sim.clock(v).rate();
    min_logical_rate_ = std::min(min_logical_rate_, rate);
    max_logical_rate_ = std::max(max_logical_rate_, rate);
    cur_rate_lo = std::min(cur_rate_lo, rate);
    cur_rate_hi = std::max(cur_rate_hi, rate);

    // Envelope audit (Condition (1)), relative to wake times: the system
    // envelope is anchored at the earliest wake (the instant L^max was
    // born), each node's lower envelope and catch-up ceiling at its own
    // t_v.  Late-waking nodes legally exceed (1+eps)(t - t_v) while
    // catching up at rate beta, so the per-node upper check needs the
    // Condition (2) ceiling and is enabled by audit_beta.
    if (opt_.audit_epsilon > 0.0) {
      const double eps = opt_.audit_epsilon;
      const double tv = sim.clock(v).start_time();
      double upper_violation = L - (1.0 + eps) * (t - earliest_start_);
      if (opt_.audit_beta > 0.0) {
        upper_violation =
            std::max(upper_violation, L - opt_.audit_beta * (t - tv));
      }
      const double lower_violation = (1.0 - eps) * (t - tv) - L;
      max_envelope_violation_ =
          std::max({max_envelope_violation_, upper_violation, lower_violation});
      cur_env = std::max({cur_env, upper_violation, lower_violation});
    }
  }

  // Re-anchor the certificates on the exact values just computed; the
  // local certificate is finished below once `local` is known.
  scanned_once_ = true;
  any_awake_seen_ = any_awake;
  bound_t_ = t;
  hi_bound_ = hi;
  lo_bound_ = lo;
  env_bound_ = cur_env;
  rate_hi_ = any_awake ? cur_rate_hi : 0.0;
  rate_lo_ = any_awake ? cur_rate_lo : 0.0;
  local_bound_ = -sim::kInfinity;

  if (!any_awake) {
    cur_global_ = 0.0;
    cur_local_ = 0.0;
    return;
  }
  const double global = hi - lo;
  max_global_skew_ = std::max(max_global_skew_, global);
  cur_global_ = global;

  double local = 0.0;
  const auto& edges = sim.topology().edges();
  for (std::size_t i = 0; i < edges.size(); ++i) {
    const auto& [u, w] = edges[i];
    const double Lu = logical_scratch_[static_cast<std::size_t>(u)];
    const double Lw = logical_scratch_[static_cast<std::size_t>(w)];
    if (Lu == -sim::kInfinity || Lw == -sim::kInfinity) continue;
    if (!sim.link_up(i)) continue;  // down links are not neighbors
    local = std::max(local, std::abs(Lu - Lw));
  }
  max_local_skew_ = std::max(max_local_skew_, local);
  local_bound_ = local;
  cur_local_ = local;

  if (opt_.track_per_distance) {
    for (sim::NodeId v = 0; v < n; ++v) {
      const double Lv = logical_scratch_[static_cast<std::size_t>(v)];
      if (Lv == -sim::kInfinity) continue;
      for (sim::NodeId w = v + 1; w < n; ++w) {
        const double Lw = logical_scratch_[static_cast<std::size_t>(w)];
        if (Lw == -sim::kInfinity) continue;
        const int d = distances_[static_cast<std::size_t>(v)][static_cast<std::size_t>(w)];
        auto& cell = per_distance_[static_cast<std::size_t>(d)];
        cell = std::max(cell, std::abs(Lv - Lw));
      }
    }
  }

  // The series advances on its fixed grid (anchoring the next point at `t`
  // would accumulate per-probe jitter and drift off the cadence).
  if (series_.due(t)) {
    hist_global_->append(t, global);
    hist_local_->append(t, local);
    series_dirty_ = true;
    series_.pass(t);
  }
}

void SkewTracker::assert_matches_oracle(double t) const {
  const SkewTracker& o = *oracle_;
  const bool recovery_ok =
      have_candidate_ == o.have_candidate_ &&
      (!have_candidate_ || recovery_candidate_ == o.recovery_candidate_) &&
      have_gradient_candidate_ == o.have_gradient_candidate_ &&
      (!have_gradient_candidate_ ||
       gradient_candidate_ == o.gradient_candidate_);
  const bool scalars_ok = recovery_ok &&
                          max_global_skew_ == o.max_global_skew_ &&
                          max_local_skew_ == o.max_local_skew_ &&
                          max_envelope_violation_ == o.max_envelope_violation_ &&
                          min_logical_rate_ == o.min_logical_rate_ &&
                          max_logical_rate_ == o.max_logical_rate_;
  bool vectors_ok = per_distance_ == o.per_distance_ &&
                    hist_global_->appends() == o.hist_global_->appends();
  if (vectors_ok && hist_global_->appends() > 0) {
    vectors_ok = hist_global_->last_time() == o.hist_global_->last_time() &&
                 hist_global_->last_value() == o.hist_global_->last_value() &&
                 hist_local_->last_value() == o.hist_local_->last_value();
  }
  if (scalars_ok && vectors_ok) return;
  std::ostringstream os;
  os.precision(17);
  os << "SkewTracker audit-oracle divergence at t=" << t
     << ": incremental {global=" << max_global_skew_
     << ", local=" << max_local_skew_
     << ", envelope=" << max_envelope_violation_
     << ", rates=[" << min_logical_rate_ << ", " << max_logical_rate_
     << "], series=" << hist_global_->appends() << "} vs oracle {global="
     << o.max_global_skew_ << ", local=" << o.max_local_skew_
     << ", envelope=" << o.max_envelope_violation_ << ", rates=["
     << o.min_logical_rate_ << ", " << o.max_logical_rate_
     << "], series=" << o.hist_global_->appends() << "}";
  throw std::logic_error(os.str());
}

}  // namespace tbcs::analysis
