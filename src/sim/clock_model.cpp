#include "sim/clock_model.hpp"

#include <stdexcept>

namespace tbcs::sim {

std::unique_ptr<DriftPolicy> make_oscillator(const OscillatorSpec& spec) {
  switch (spec.kind) {
    case OscillatorSpec::Kind::kConst:
      return std::make_unique<ConstantDrift>(1.0);
    case OscillatorSpec::Kind::kWalk:
      return std::make_unique<RandomWalkDrift>(spec.epsilon, spec.interval,
                                               spec.seed);
    case OscillatorSpec::Kind::kClampedWalk:
      return std::make_unique<ClampedRandomWalkDrift>(
          spec.epsilon, spec.interval, spec.step, spec.seed);
    case OscillatorSpec::Kind::kSquare: {
      const NodeId fast_below = spec.fast_below;
      return std::make_unique<SquareWaveDrift>(
          spec.epsilon, spec.interval,
          [fast_below](NodeId v) { return v < fast_below; });
    }
    case OscillatorSpec::Kind::kSine:
      return std::make_unique<SinusoidalDrift>(spec.epsilon, spec.interval,
                                               spec.seed);
  }
  throw std::invalid_argument("unknown oscillator kind");
}

}  // namespace tbcs::sim
