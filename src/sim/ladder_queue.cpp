#include "sim/ladder_queue.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace tbcs::sim {

namespace {

// Descending by the canonical key: back() of a sorted range pops first.
inline bool event_after(const Event& a, const Event& b) {
  return event_before(b, a);
}

// Width refinement floor: below this a bucket is sorted whatever its size
// (same-time pileups would otherwise spawn rungs forever).
inline double min_width(double base) {
  return (std::abs(base) + 1.0) * 1e-12;
}

// Bucket index for time t in a rung of nb buckets starting at base.  A
// *pure function of t* shared by push and spawn placement: equal times
// always share a bucket and floor() is monotone, so bucket membership can
// never reorder keys.  Times below base (possible for events that were
// position-clamped in a parent rung) land in bucket 0, which drains first.
inline std::size_t bucket_index(double t, double base, double width,
                                std::size_t nb) {
  const double q = (t - base) / width;
  if (!(q > 0.0)) return 0;
  const std::size_t idx = static_cast<std::size_t>(q);
  return idx < nb ? idx : nb - 1;
}

}  // namespace

void LadderQueue::push(const Event& e) {
  ++size_;
  ++stats_.pushes;
  if (size_ > stats_.peak_size) stats_.peak_size = size_;
  if (e.time < run_end_) {
    // Below the sorted run's horizon: pay a sorted insert.  Requires a
    // delay shorter than one bucket width, so this path is cold.
    ++istats_.run_inserts;
    const auto it = std::upper_bound(run_.begin(), run_.end(), e, event_after);
    run_.insert(it, e);
    return;
  }
  // Innermost rung first: rung spans are nested (each inner rung refines
  // the bucket at its parent's drain position), so the first rung whose
  // span covers e.time is the finest one.
  for (auto r = rungs_.rbegin(); r != rungs_.rend(); ++r) {
    if (e.time >= r->end()) continue;
    std::size_t idx =
        bucket_index(e.time, r->base, r->width, r->buckets.size());
    // Clamping *up* to the drain position is safe: e.time >= run_end_
    // already orders it after everything in the run, the clamp is monotone,
    // and the bucket at pos is the next one sorted.
    if (idx < r->pos) idx = r->pos;
    r->buckets[idx].push_back(e);
    return;
  }
  overflow_.push_back(e);
}

void LadderQueue::advance() {
  assert(size_ > 0 && "advance on an empty ladder");
  for (;;) {
    while (!rungs_.empty()) {
      Rung& r = rungs_.back();
      while (r.pos < r.buckets.size() && r.buckets[r.pos].empty()) ++r.pos;
      if (r.pos == r.buckets.size()) {
        // Rung exhausted; recycle its bucket storage and resume the parent.
        for (std::vector<Event>& b : r.buckets) recycle(b);
        rungs_.pop_back();
        continue;
      }
      std::vector<Event>& bucket = r.buckets[r.pos];
      if (bucket.size() > kSpillAt && r.width > min_width(r.base)) {
        // Oversized bucket: refine it into a finer rung instead of paying
        // one big sort.  The new rung spans exactly this bucket.
        const double lo = r.base + r.width * static_cast<double>(r.pos);
        const double hi = lo + r.width;
        std::vector<Event> events = std::move(bucket);
        ++r.pos;
        ++istats_.spills;
        spawn_rung(events, lo, hi);  // invalidates r
        recycle(events);  // the drained carrier is bucket-sized storage
        continue;
      }
      // Sort this bucket and make it the run; the drained run's storage
      // goes back to the pool.
      run_.swap(bucket);
      recycle(bucket);
      std::sort(run_.begin(), run_.end(), event_after);
      ++istats_.resorts;
      ++r.pos;
      run_end_ = r.base + r.width * static_cast<double>(r.pos);
      return;
    }
    // No rungs left.  If the overflow has events, re-bucket it into a
    // fresh root rung spanning its [min, max]; otherwise everything lives
    // in the run already.
    if (overflow_.empty()) {
      assert(!run_.empty() && "ladder lost events");
      return;
    }
    double lo = overflow_.front().time;
    double hi = lo;
    for (const Event& e : overflow_) {
      if (e.time < lo) lo = e.time;
      if (e.time > hi) hi = e.time;
    }
    std::vector<Event> events;
    events.swap(overflow_);
    ++istats_.rebuckets;
    // Inflate the span so the max-time event is strictly inside the rung:
    // push's membership test (t < end) then agrees with spawn placement
    // for every time the rung was built from, fp edges included.
    double span = (hi - lo) * (1.0 + 1e-9) + min_width(lo);
    spawn_rung(events, lo, lo + span);
    // The carrier returns to the overflow, which refills at the same
    // rate, unless it was sized for a larger population than it held
    // (size_ is exactly that population: run and rungs were empty).
    if (events.capacity() <= 2 * pool_limit()) {
      events.clear();
      overflow_.swap(events);
    }
  }
}

void LadderQueue::recycle(std::vector<Event>& b) {
  const std::size_t cap = b.capacity();
  if (cap > 0 && pool_slots_ + cap <= pool_limit() &&
      bucket_pool_.size() < kMaxBuckets) {
    b.clear();
    pool_slots_ += cap;
    bucket_pool_.push_back(std::move(b));
  }
  std::vector<Event>().swap(b);  // b is left without storage either way
}

void LadderQueue::spawn_rung(const std::vector<Event>& events, double lo,
                             double hi) {
  Rung r;
  r.base = lo;
  std::size_t nb = events.size() / kTargetPerBucket;
  if (nb < kMinBuckets) nb = kMinBuckets;
  if (nb > kMaxBuckets) nb = kMaxBuckets;
  double span = hi - lo;
  if (!(span > 0.0)) span = min_width(lo);
  r.width = span / static_cast<double>(nb);
  if (!(r.width > 0.0)) r.width = min_width(lo);
  r.buckets.resize(nb);
  for (std::vector<Event>& b : r.buckets) {
    if (bucket_pool_.empty()) break;
    b = std::move(bucket_pool_.back());
    bucket_pool_.pop_back();
    pool_slots_ -= b.capacity();
  }
  for (const Event& e : events) {
    r.buckets[bucket_index(e.time, r.base, r.width, nb)].push_back(e);
  }
  rungs_.push_back(std::move(r));
  if (rungs_.size() > istats_.peak_rungs) istats_.peak_rungs = rungs_.size();
}

void LadderQueue::clear() {
  run_.clear();
  rungs_.clear();
  overflow_.clear();
  size_ = 0;
  run_end_ = -kInfinity;
}

void LadderQueue::reserve(std::size_t expected) {
  overflow_.reserve(expected);
  run_.reserve(kSpillAt * 2);
}

std::size_t LadderQueue::capacity() const {
  std::size_t cap = run_.capacity() + overflow_.capacity();
  for (const Rung& r : rungs_) {
    for (const std::vector<Event>& b : r.buckets) cap += b.capacity();
  }
  for (const std::vector<Event>& b : bucket_pool_) cap += b.capacity();
  return cap;
}

}  // namespace tbcs::sim
