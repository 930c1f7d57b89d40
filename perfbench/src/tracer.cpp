#include "tracer.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <vector>

namespace perfbench {

const char* span_kind_name(SpanKind k) {
  switch (k) {
    case SpanKind::kHandler: return "handler";
    case SpanKind::kBroadcast: return "broadcast";
    case SpanKind::kTimer: return "timer";
    case SpanKind::kDelay: return "delay";
    case SpanKind::kDrift: return "drift";
    case SpanKind::kObserve: return "observe";
  }
  return "?";
}

double SpanTotals::est_self_ns() const {
  return sampled == 0 ? 0.0
                      : self_ns * static_cast<double>(calls) /
                            static_cast<double>(sampled);
}

double SpanTotals::est_top_ns() const {
  return top_sampled == 0 ? 0.0
                          : top_ns * static_cast<double>(top_calls) /
                                static_cast<double>(top_sampled);
}

SpanStack::SpanStack(int sample_shift, double inner_ns, double outer_ns)
    : mask_((std::uint64_t{1} << sample_shift) - 1),
      inner_ns_(inner_ns),
      outer_ns_(outer_ns) {}

bool SpanStack::open(SpanKind k) {
  if (depth_ == kMaxDepth) throw std::logic_error("perfbench: span stack overflow");
  SpanTotals& tot = totals_[static_cast<int>(k)];
  ++tot.calls;
  bool timed;
  if (depth_ == 0) {
    // The first calls of each kind are always timed, so kinds that are
    // rare in a workload (observer barriers, rate changes) still get a
    // sample.  After that, pseudo-random rather than every 2^k-th call:
    // top-level kinds alternate in fixed patterns (handler, observer, ...)
    // that a plain counter would alias with.
    rng_ ^= rng_ << 13;
    rng_ ^= rng_ >> 7;
    rng_ ^= rng_ << 17;
    timed = tot.top_calls < kAlwaysTimed || (rng_ & mask_) == 0;
    ++tot.top_calls;
  } else {
    timed = frames_[depth_ - 1].timed;
  }
  frames_[depth_++] = Frame{k, timed, 0.0, 0.0, 0.0};
  return timed;
}

void SpanStack::set_start(double now_ns) { frames_[depth_ - 1].start = now_ns; }

void SpanStack::close(double now_ns) {
  if (depth_ == 0) throw std::logic_error("perfbench: close without open");
  const Frame f = frames_[--depth_];
  if (!f.timed) return;
  const double dur = now_ns - f.start - inner_ns_ - f.overhead;
  SpanTotals& tot = totals_[static_cast<int>(f.kind)];
  ++tot.sampled;
  tot.incl_ns += dur;
  tot.self_ns += dur - f.child;
  if (depth_ > 0) {
    Frame& parent = frames_[depth_ - 1];
    parent.child += dur;
    parent.overhead += f.overhead + outer_ns_;
  } else {
    ++tot.top_sampled;
    tot.top_ns += dur;
  }
}

void SpanStack::reset() {
  rng_ = kRngSeed;
  depth_ = 0;
  totals_ = SpanTable{};
}

namespace {

// Stacks live as long as the process: a worker thread's thread_local
// pointer may outlive one run, and a merge after the thread has exited
// still needs its totals.
struct Registry {
  std::mutex mu;  // guards stacks
  std::vector<std::unique_ptr<SpanStack>> stacks;
};

Registry& registry() {
  static Registry r;
  return r;
}

thread_local SpanStack* tl_stack = nullptr;

}  // namespace

Tracer& Tracer::global() {
  static Tracer t;
  return t;
}

namespace {

// Median over repetitions of what an empty timed span costs: measured by
// itself (inner) and as seen by an enclosing span (outer, per child).
void calibrate(double& inner_ns, double& outer_ns) {
  constexpr int kSpans = 2000;
  constexpr int kReps = 9;
  std::vector<double> inner, outer;
  for (int rep = 0; rep < kReps; ++rep) {
    SpanStack st(0);
    for (int i = 0; i < kSpans; ++i) {
      st.open(SpanKind::kTimer);
      st.set_start(steady_now_ns());
      st.close(steady_now_ns());
    }
    st.open(SpanKind::kHandler);
    st.set_start(steady_now_ns());
    for (int i = 0; i < kSpans; ++i) {
      st.open(SpanKind::kTimer);
      st.set_start(steady_now_ns());
      st.close(steady_now_ns());
    }
    st.close(steady_now_ns());
    const SpanTable& t = st.totals();
    inner.push_back(t[static_cast<int>(SpanKind::kTimer)].top_ns / kSpans);
    outer.push_back(t[static_cast<int>(SpanKind::kHandler)].incl_ns / kSpans);
  }
  std::sort(inner.begin(), inner.end());
  std::sort(outer.begin(), outer.end());
  inner_ns = inner[kReps / 2];
  outer_ns = outer[kReps / 2];
}

}  // namespace

void Tracer::start(int sample_shift) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  shift_ = sample_shift;
  if (inner_ns_ < 0.0) calibrate(inner_ns_, outer_ns_);
  // Existing stacks keep their identity but take the new sampling rate.
  for (auto& s : r.stacks) *s = SpanStack(shift_, inner_ns_, outer_ns_);
  enabled_.store(true, std::memory_order_relaxed);
}

void Tracer::stop() { enabled_.store(false, std::memory_order_relaxed); }

SpanTable Tracer::collect() const {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  SpanTable out{};
  for (const auto& s : r.stacks) {
    for (int k = 0; k < kNumSpanKinds; ++k) {
      const SpanTotals& a = s->totals()[k];
      SpanTotals& o = out[k];
      o.calls += a.calls;
      o.sampled += a.sampled;
      o.incl_ns += a.incl_ns;
      o.self_ns += a.self_ns;
      o.top_calls += a.top_calls;
      o.top_sampled += a.top_sampled;
      o.top_ns += a.top_ns;
    }
  }
  return out;
}

SpanStack& Tracer::local() {
  if (tl_stack == nullptr) {
    Registry& r = registry();
    std::lock_guard<std::mutex> lock(r.mu);
    r.stacks.push_back(
        std::make_unique<SpanStack>(shift_, inner_ns_, outer_ns_));
    tl_stack = r.stacks.back().get();
  }
  return *tl_stack;
}

double steady_now_ns() {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace perfbench
