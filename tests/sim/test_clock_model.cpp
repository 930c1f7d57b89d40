#include "sim/clock_model.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

namespace tbcs::sim {
namespace {

TEST(ClampedRandomWalkDrift, RatesStayClamped) {
  const double eps = 0.01;
  ClampedRandomWalkDrift drift(eps, 10.0, 0.5 /* step >> eps forces clamping */,
                               1234);
  for (NodeId v = 0; v < 8; ++v) {
    double r = drift.initial_rate(v);
    EXPECT_GE(r, 1.0 - eps);
    EXPECT_LE(r, 1.0 + eps);
    RealTime now = 0.0;
    for (int i = 0; i < 200; ++i) {
      const auto step = drift.next_change(v, now);
      ASSERT_TRUE(step.has_value());
      EXPECT_GT(step->at, now);
      EXPECT_GE(step->rate, 1.0 - eps);
      EXPECT_LE(step->rate, 1.0 + eps);
      now = step->at;
    }
  }
}

TEST(ClampedRandomWalkDrift, IncrementsAreBounded) {
  const double eps = 0.1;
  const double step_bound = 0.002;
  ClampedRandomWalkDrift drift(eps, 5.0, step_bound, 99);
  double prev = drift.initial_rate(0);
  RealTime now = 0.0;
  for (int i = 0; i < 500; ++i) {
    const auto step = drift.next_change(0, now);
    ASSERT_TRUE(step.has_value());
    // Consecutive rates are correlated: each move is at most the step
    // bound (this is what distinguishes the walk from i.i.d. re-draws).
    EXPECT_LE(std::abs(step->rate - prev), step_bound + 1e-15);
    prev = step->rate;
    now = step->at;
  }
}

TEST(ClampedRandomWalkDrift, DeterministicAndStaggered) {
  ClampedRandomWalkDrift a(0.01, 10.0, 0.001, 7);
  ClampedRandomWalkDrift b(0.01, 10.0, 0.001, 7);
  for (NodeId v = 0; v < 4; ++v) {
    EXPECT_DOUBLE_EQ(a.initial_rate(v), b.initial_rate(v));
    const auto sa = a.next_change(v, 0.0);
    const auto sb = b.next_change(v, 0.0);
    ASSERT_TRUE(sa && sb);
    EXPECT_DOUBLE_EQ(sa->at, sb->at);
    EXPECT_DOUBLE_EQ(sa->rate, sb->rate);
    // First change is staggered inside the first interval.
    EXPECT_GT(sa->at, 0.0);
    EXPECT_LE(sa->at, 10.0);
  }
}

TEST(Oscillator, FactoryProducesEachFamily) {
  OscillatorSpec spec;
  spec.epsilon = 0.01;
  spec.interval = 10.0;
  spec.seed = 5;

  spec.kind = OscillatorSpec::Kind::kConst;
  EXPECT_DOUBLE_EQ(make_oscillator(spec)->initial_rate(0), 1.0);

  spec.kind = OscillatorSpec::Kind::kWalk;
  auto walk = make_oscillator(spec);
  const double r = walk->initial_rate(3);
  EXPECT_GE(r, 0.99);
  EXPECT_LE(r, 1.01);

  spec.kind = OscillatorSpec::Kind::kClampedWalk;
  spec.step = 0.001;
  auto cw = make_oscillator(spec);
  EXPECT_TRUE(cw->next_change(0, 0.0).has_value());

  spec.kind = OscillatorSpec::Kind::kSquare;
  spec.fast_below = 2;
  auto sq = make_oscillator(spec);
  EXPECT_DOUBLE_EQ(sq->initial_rate(0), 1.01);
  EXPECT_DOUBLE_EQ(sq->initial_rate(2), 0.99);

  spec.kind = OscillatorSpec::Kind::kSine;
  auto sine = make_oscillator(spec);
  const double sr = sine->initial_rate(1);
  EXPECT_GE(sr, 0.99);
  EXPECT_LE(sr, 1.01);
}

}  // namespace
}  // namespace tbcs::sim
