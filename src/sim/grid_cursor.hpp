// The sampling-grid rule shared by every grid consumer (skew tracker sample
// and recovery-classification grids, series cadence, stabilization probe).
//
// A grid point is accumulated by addition, exactly like the simulator's
// probe schedule (SimConfig::probe_interval): the serial engine queues the
// next probe at `previous + interval` and the sharded coordinator advances
// `probe_next_ += interval`.  A cursor built by probe() therefore lands on
// bit-equal times, so "the first observer call at or after each grid
// point" is the probe sample itself in both engines.
#pragma once

#include "sim/types.hpp"

namespace tbcs::sim {

class GridCursor {
 public:
  /// Always due.
  GridCursor() = default;

  /// Points first, first + step, first + step + step, ...  With step == 0
  /// every time from `first` on is due.
  GridCursor(RealTime first, Duration step) : next_(first), step_(step) {}

  /// The probe grid k * step (k >= 1), starting at its first point not
  /// before `from`.
  static GridCursor probe(Duration step, RealTime from = 0.0) {
    GridCursor c(step, step);
    while (c.next_ < from) c.next_ += step;
    return c;
  }

  /// Never due.
  static GridCursor never() { return GridCursor(kInfinity, 0.0); }

  /// Whether t is at or past the next grid point (one compare).
  bool due(RealTime t) const { return t >= next_; }

  /// Moves the cursor to the first grid point after t.
  void pass(RealTime t) {
    if (step_ <= 0.0) return;
    while (next_ <= t) next_ += step_;
  }

 private:
  RealTime next_ = -kInfinity;
  Duration step_ = 0.0;
};

}  // namespace tbcs::sim
