// Clock-model layer: oscillator families.
//
// The paper's model (Section 3) only needs a free-running hardware clock
// whose rate the adversary perturbs inside [1-eps, 1+eps]; hardware_clock
// + drift_policy cover that.  This header names the drift models so the
// CLI, sweep specs and tests build them from one declarative spec:
//
//  * OscillatorSpec / make_oscillator() — a first-class drift axis.  The
//    CLI's named drift models (const/walk/square/sine and the new
//    clamped random-walk "rwalk") build through here instead of ad-hoc
//    switch arms, so scenario code and tests construct identical
//    policies from one spec.
//
//  * ClampedRandomWalkDrift — a physical oscillator: the rate takes
//    bounded uniform *increments* (a true random walk) and is clamped to
//    [1-eps, 1+eps].  Unlike RandomWalkDrift (which re-draws the rate
//    i.i.d. each interval) consecutive rates are correlated, which is
//    the regime where long-horizon gradient properties show up.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/drift_policy.hpp"
#include "sim/rng.hpp"
#include "sim/types.hpp"

namespace tbcs::sim {

/// Rate random walk with a saturating clamp at the model bounds:
/// rate' = clamp(rate + U(-step, +step), 1-eps, 1+eps), updated
/// every `interval` with per-node staggered phases (same stagger/split
/// idiom as RandomWalkDrift so streams stay order-independent).
class ClampedRandomWalkDrift final : public DriftPolicy {
 public:
  ClampedRandomWalkDrift(double epsilon, Duration interval, double step,
                         std::uint64_t seed)
      : epsilon_(epsilon), interval_(interval), step_(step), root_(seed) {}

  double initial_rate(NodeId v) override {
    double& r = node_rate(v);
    r = node_rng(v).uniform(1.0 - epsilon_, 1.0 + epsilon_);
    return r;
  }

  std::optional<RateStep> next_change(NodeId v, RealTime now) override {
    Rng& rng = node_rng(v);
    const RealTime at =
        now == 0.0 ? interval_ * rng.next_double() : now + interval_;
    double& r = node_rate(v);
    r += rng.uniform(-step_, step_);
    r = std::min(1.0 + epsilon_, std::max(1.0 - epsilon_, r));
    return RateStep{at, r};
  }

 private:
  Rng& node_rng(NodeId v) {
    const auto idx = static_cast<std::size_t>(v);
    while (rngs_.size() <= idx) {
      rngs_.push_back(root_.split(rngs_.size() + 1));
    }
    return rngs_[idx];
  }
  double& node_rate(NodeId v) {
    const auto idx = static_cast<std::size_t>(v);
    while (rates_.size() <= idx) rates_.push_back(1.0);
    return rates_[idx];
  }

  double epsilon_;
  Duration interval_;
  double step_;
  Rng root_;
  std::vector<Rng> rngs_;
  std::vector<double> rates_;
};

/// One oscillator family = one drift policy, described declaratively so
/// CLI parsing, sweep specs, and tests share a single construction path.
struct OscillatorSpec {
  enum class Kind {
    kConst,        // fixed rate 1 (ignores epsilon)
    kWalk,         // i.i.d. re-draw in [1-eps, 1+eps] per interval
    kClampedWalk,  // correlated bounded-increment walk, clamped
    kSquare,       // two groups alternate between the extreme rates
    kSine,         // discretized per-node-phase sinusoid
  };

  Kind kind = Kind::kConst;
  double epsilon = 0.0;
  /// Rate-change cadence (kWalk/kClampedWalk), full period (kSquare/kSine).
  Duration interval = 0.0;
  /// kClampedWalk: max |rate increment| per change.
  double step = 0.0;
  std::uint64_t seed = 0;
  /// kSquare: nodes with id < fast_below run fast in the first half-period.
  NodeId fast_below = 0;
};

std::unique_ptr<DriftPolicy> make_oscillator(const OscillatorSpec& spec);

}  // namespace tbcs::sim
