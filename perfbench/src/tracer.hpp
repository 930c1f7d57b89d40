// Sampled span timing for the benchmark's traced runs.
//
// Spans are opened and closed around calls into the simulator's layers by
// the pass-through decorators (decorators.hpp).  Every call is counted
// exactly; one top-level span in 2^k is timed, and a sampled span times
// all of its children, so a layer's self time (its span minus its child
// spans) is measured on the same sample.  Each thread keeps its own
// accumulator — sharded lanes call into nodes and policies from worker
// threads — and collect() merges them once the run has stopped.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>

namespace perfbench {

enum class SpanKind : int {
  kHandler = 0,  // Node callback (core layer)
  kBroadcast,    // NodeServices::broadcast (sim fan-out)
  kTimer,        // NodeServices::set_timer / cancel_timer (sim wheel)
  kDelay,        // DelayPolicy calls (sim policy draws, fault channel)
  kDrift,        // DriftPolicy calls (sim policy draws)
  kObserve,      // observer slots: SkewTracker + StabilizationProbe
};
inline constexpr int kNumSpanKinds = 6;
const char* span_kind_name(SpanKind k);

/// Per-kind totals.  `calls` is exact; the nanosecond sums cover only the
/// `sampled` calls (the first 64 top-level calls of a kind, then one in
/// 2^k).  `top_*` cover the calls made with no enclosing span.
struct SpanTotals {
  std::uint64_t calls = 0;
  std::uint64_t sampled = 0;
  double incl_ns = 0.0;  // sampled span durations, children included
  double self_ns = 0.0;  // sampled span durations minus child spans
  std::uint64_t top_calls = 0;
  std::uint64_t top_sampled = 0;
  double top_ns = 0.0;

  /// Self time scaled from the sample to all calls.
  double est_self_ns() const;
  /// Top-level span time scaled from the sample to all top-level calls.
  double est_top_ns() const;
};

using SpanTable = std::array<SpanTotals, kNumSpanKinds>;

/// One thread's open-span stack plus its accumulator.  Timestamps are
/// passed in, so tests can drive it with a synthetic clock.
class SpanStack {
 public:
  /// Times one top-level span in 2^sample_shift (0 = every span).
  /// `inner_ns` is what an empty timed span measures of itself and
  /// `outer_ns` what it adds to its parent — the cost of reading the clock,
  /// subtracted so that timing children does not inflate their parents.
  explicit SpanStack(int sample_shift = 0, double inner_ns = 0.0,
                     double outer_ns = 0.0);

  /// Opens a span; returns whether it is timed.  Only a timed span needs
  /// set_start(); close() ignores its timestamp for untimed ones.
  bool open(SpanKind k);
  void set_start(double now_ns);
  void close(double now_ns);

  const SpanTable& totals() const { return totals_; }
  void reset();
  int depth() const { return depth_; }

 private:
  struct Frame {
    SpanKind kind = SpanKind::kHandler;
    bool timed = false;
    double start = 0.0;
    double child = 0.0;     // corrected durations of timed children
    double overhead = 0.0;  // clock cost of timing the children
  };
  static constexpr int kMaxDepth = 16;
  static constexpr std::uint64_t kAlwaysTimed = 64;

  std::uint64_t mask_;
  double inner_ns_;
  double outer_ns_;
  static constexpr std::uint64_t kRngSeed = 0x9e3779b97f4a7c15ULL;
  std::uint64_t rng_ = kRngSeed;  // xorshift64 state for sampling
  int depth_ = 0;
  std::array<Frame, kMaxDepth> frames_{};
  SpanTable totals_{};
};

/// Process-wide tracer: hands each thread its own SpanStack and merges
/// them.  Disabled by default, in which case spans cost one branch.
class Tracer {
 public:
  static Tracer& global();

  /// Enables tracing with the given sampling shift and zeroes every
  /// thread's totals.  Calibrates the clock cost on first use.  Call only
  /// while no simulator is running.
  void start(int sample_shift);
  void stop();
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Sum over all threads.  Call only while no simulator is running.
  SpanTable collect() const;

  /// The calling thread's stack.
  SpanStack& local();

 private:
  Tracer() = default;
  // Flipped only between runs; simulator threads start after the flip.
  std::atomic<bool> enabled_{false};
  int shift_ = 0;
  double inner_ns_ = -1.0;  // < 0: not calibrated yet
  double outer_ns_ = 0.0;
};

double steady_now_ns();

/// RAII span on the calling thread's stack; inert while tracing is off.
class ScopedSpan {
 public:
  explicit ScopedSpan(SpanKind k) {
    Tracer& t = Tracer::global();
    if (!t.enabled()) return;
    stack_ = &t.local();
    if (stack_->open(k)) {
      timed_ = true;
      stack_->set_start(steady_now_ns());
    }
  }
  ~ScopedSpan() {
    if (stack_ != nullptr) stack_->close(timed_ ? steady_now_ns() : 0.0);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanStack* stack_ = nullptr;
  bool timed_ = false;
};

}  // namespace perfbench
