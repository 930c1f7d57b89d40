// The simulator's event queue: a ladder (bucket) queue with O(1)
// amortized insert/pop, ordered by the canonical schedule-order-independent
// key (event_before: time, source, per-source seq, twin).  Timer events do
// not live here: node self-timers are handled by the TimerWheel and merged
// with this queue's pop stream by the simulator.
//
// Structure (a ladder in the sense of Tang et al.'s ladder queue, adapted
// to the canonical key):
//
//   run_       the *sorted run*: events with time < run_end_, kept sorted
//              descending so back() is the next pop.  Refilled one bucket
//              at a time.
//   rungs_     a stack of rungs.  Each rung splits a time span into
//              equal-width unsorted buckets; rungs_[k+1] refines one
//              oversized bucket of rungs_[k] (spawned lazily when a bucket
//              with more than kSpillAt events reaches the drain position).
//   overflow_  events beyond the outermost rung's span.  When every rung
//              is exhausted the overflow is re-bucketed into a fresh root
//              rung spanning [min, max] of its events (amortized O(1):
//              each event is re-bucketed at most once per rung level, and
//              rung depth is bounded by the spill width floor).
//
// A push appends to the bucket covering its time (O(1)); only events that
// land *below* run_end_ pay a sorted insert into the run, which requires a
// delay shorter than one bucket width — rare by construction, since widths
// adapt to ~kTargetPerBucket events per bucket.  A pop takes the run's
// back; when the run is empty the next non-empty bucket is sorted and
// becomes the run (O(B log B) for B ~ kTargetPerBucket, contiguous data).
//
// Determinism: bucket membership never affects pop order — buckets are
// drained in time order, floor() is monotone (equal times always share a
// bucket, smaller times never land in a later bucket), and each bucket is
// fully sorted by event_before before anything pops.  The pop sequence is
// therefore exactly a priority queue's under that key, for any push
// interleaving (the tests check it against a reference 4-ary heap).
//
// Memory: retained storage follows the live population.  Spent buckets
// are recycled through a pool whose total capacity never exceeds
// max(size(), kMinPoolSlots) slots, and the overflow keeps its carrier
// across a re-bucket only while that carrier is sized for the population
// it held; everything else is freed.  A burst therefore does not pin its
// peak footprint for the rest of the run.
//
// The run doubles as the prefetch window: upcoming() exposes the next few
// pops so the simulator can prefetch their destination node slots.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/event.hpp"
#include "sim/types.hpp"

namespace tbcs::sim {

class LadderQueue {
 public:
  /// Canonical counters: the same for any bucket layout.
  struct Stats {
    std::size_t peak_size = 0;
    std::uint64_t pushes = 0;
    std::uint64_t pops = 0;
  };

  /// Bucket-layout internals (NOT canonical).
  struct ImplStats {
    std::uint64_t resorts = 0;    // buckets sorted into the run
    std::uint64_t spills = 0;     // oversized buckets refined into a new rung
    std::uint64_t rebuckets = 0;  // overflow redistributions into a root rung
    std::uint64_t run_inserts = 0;  // pushes that paid a sorted run insert
    std::size_t peak_rungs = 0;
  };

  void push(const Event& e);
  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  /// The next event to pop.  Non-const: lazily advances (sorts the next
  /// bucket) when the run is empty.  Precondition: !empty().
  const Event& top() {
    if (run_.empty()) advance();
    return run_.back();
  }

  Event pop() {
    if (run_.empty()) advance();
    const Event out = run_.back();
    run_.pop_back();
    --size_;
    ++stats_.pops;
    return out;
  }

  /// Empties the queue (keys are stamped by the producer, so ordering
  /// stays correct across a clear).  Keeps allocated storage.
  void clear();

  /// Pre-sizes the overflow staging area for an expected event population
  /// (the initial burst of per-node rate-change events lands there).
  void reserve(std::size_t expected);

  /// Up to `max_n` upcoming events in reverse pop order (out[count-1] pops
  /// first), contiguous; valid until the next push/pop/clear.  May return
  /// fewer than available when the run is short.  Precondition: !empty().
  const Event* upcoming(std::size_t max_n, std::size_t& count) {
    if (run_.empty()) advance();
    count = run_.size() < max_n ? run_.size() : max_n;
    return run_.data() + (run_.size() - count);
  }

  /// Allocated event slots across the run, all rung buckets, the
  /// overflow and the bucket pool (an O(#buckets) walk; stats-time only).
  std::size_t capacity() const;

  const Stats& stats() const { return stats_; }
  const ImplStats& impl_stats() const { return istats_; }

 private:
  // ~kTargetPerBucket events per bucket keeps the per-pop sort at a few
  // comparisons over contiguous memory; buckets above kSpillAt are refined
  // instead of sorted so one hot bucket never degrades to O(B log B) for
  // large B.  Width refinement stops at kMinWidth (relative to the span)
  // to terminate on pathological same-time pileups.
  static constexpr std::size_t kTargetPerBucket = 8;
  static constexpr std::size_t kSpillAt = 64;
  static constexpr std::size_t kMinBuckets = 32;
  static constexpr std::size_t kMaxBuckets = 4096;
  // Pool capacity allowed whatever the population: one minimal rung's
  // worth of buckets at the target fill.
  static constexpr std::size_t kMinPoolSlots = kMinBuckets * kTargetPerBucket;

  struct Rung {
    double base = 0.0;
    double width = 1.0;
    std::size_t pos = 0;  // next bucket to drain
    std::vector<std::vector<Event>> buckets;
    double end() const {
      return base + width * static_cast<double>(buckets.size());
    }
  };

  void advance();  // refill run_ from the rungs / overflow
  void spawn_rung(const std::vector<Event>& events, double lo, double hi);
  /// Pools `b`'s storage if the pool stays within its bound, else frees it.
  void recycle(std::vector<Event>& b);
  std::size_t pool_limit() const {
    return size_ > kMinPoolSlots ? size_ : kMinPoolSlots;
  }

  std::vector<Event> run_;  // sorted descending by event_before
  double run_end_ = -kInfinity;
  std::vector<Rung> rungs_;
  std::vector<Event> overflow_;
  std::vector<std::vector<Event>> bucket_pool_;  // recycled bucket storage
  std::size_t pool_slots_ = 0;  // total capacity held by bucket_pool_
  std::size_t size_ = 0;
  Stats stats_;
  ImplStats istats_;
};

}  // namespace tbcs::sim
