// Ladder-queue unit suite: the bucket queue must pop the exact sequence
// the reference 4-ary heap pops — the key (time, source, seq, twin) is a
// pure function of the event set, so any divergence is a determinism bug,
// not a performance tradeoff.
#include "sim/ladder_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "sim/rng.hpp"
#include "support/reference_heap.hpp"

namespace tbcs::sim {
namespace {

using testing_support::ReferenceHeap;

Event keyed(RealTime t, NodeId source, std::uint64_t seq, bool twin = false) {
  Event e;
  e.time = t;
  e.source = source;
  e.seq = seq;
  e.twin = twin;
  return e;
}

void expect_same_pops(const std::vector<Event>& events) {
  LadderQueue ladder;
  ReferenceHeap heap;
  for (const Event& e : events) {
    ladder.push(e);
    heap.push(e);
  }
  ASSERT_EQ(ladder.size(), heap.size());
  std::size_t i = 0;
  while (!heap.empty()) {
    const Event want = heap.pop();
    const Event got = ladder.pop();
    ASSERT_DOUBLE_EQ(got.time, want.time) << "pop " << i;
    ASSERT_EQ(got.source, want.source) << "pop " << i;
    ASSERT_EQ(got.seq, want.seq) << "pop " << i;
    ASSERT_EQ(got.twin, want.twin) << "pop " << i;
    ++i;
  }
  EXPECT_TRUE(ladder.empty());
}

TEST(LadderQueue, EmptyInitially) {
  LadderQueue q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
}

TEST(LadderQueue, PopsInTimeOrder) {
  LadderQueue q;
  q.push(keyed(3.0, 0, 0));
  q.push(keyed(1.0, 0, 1));
  q.push(keyed(2.0, 0, 2));
  EXPECT_DOUBLE_EQ(q.pop().time, 1.0);
  EXPECT_DOUBLE_EQ(q.pop().time, 2.0);
  EXPECT_DOUBLE_EQ(q.pop().time, 3.0);
  EXPECT_TRUE(q.empty());
}

TEST(LadderQueue, TieBreakIsSourceThenSeqThenTwin) {
  LadderQueue q;
  q.push(keyed(5.0, 2, 0));
  q.push(keyed(5.0, 1, 1, /*twin=*/true));
  q.push(keyed(5.0, 1, 1));
  q.push(keyed(5.0, 1, 0));
  q.push(keyed(5.0, kInvalidNode, 7));
  EXPECT_EQ(q.pop().source, kInvalidNode) << "system events sort first";
  const Event b = q.pop();
  EXPECT_EQ(b.source, 1);
  EXPECT_EQ(b.seq, 0u);
  const Event c = q.pop();
  EXPECT_EQ(c.seq, 1u);
  EXPECT_FALSE(c.twin) << "the primary pops before its twin";
  EXPECT_TRUE(q.pop().twin);
  EXPECT_EQ(q.pop().source, 2);
}

// Interleaved push/pop with pushes below the already-sorted run: those pay
// the sorted-run insert path, which must keep order exact.
TEST(LadderQueue, RunInsertKeepsOrder) {
  LadderQueue q;
  for (int i = 0; i < 256; ++i) {
    q.push(keyed(static_cast<double>(i) * 0.25, 0,
                 static_cast<std::uint64_t>(i)));
  }
  EXPECT_DOUBLE_EQ(q.pop().time, 0.0);  // forces the first bucket into the run
  q.push(keyed(0.26, 5, 1000));         // lands inside the sorted run
  RealTime last = 0.0;
  while (!q.empty()) {
    const RealTime t = q.pop().time;
    EXPECT_GE(t, last);
    last = t;
  }
  EXPECT_GE(q.impl_stats().run_inserts, 1u);
}

// A same-time pileup larger than the spill threshold cannot be split by
// refinement (zero span); the width floor must stop recursion and the
// pops must still come out in seq order.
TEST(LadderQueue, SameTimePileupTerminatesAndStaysOrdered) {
  LadderQueue q;
  for (int i = 499; i >= 0; --i) {
    q.push(keyed(7.0, 3, static_cast<std::uint64_t>(i)));
  }
  for (std::uint64_t i = 0; i < 500; ++i) {
    ASSERT_EQ(q.pop().seq, i);
  }
  EXPECT_TRUE(q.empty());
}

// Events at a rebucketed span's exact maximum must land inside the root
// rung (not oscillate between overflow and rung), including when several
// events share that maximum time.
TEST(LadderQueue, SpanUpperEdgeIsInclusive) {
  LadderQueue q;
  for (int i = 0; i < 100; ++i) {
    q.push(keyed(1.0 + (i % 10), static_cast<NodeId>(i),
                 static_cast<std::uint64_t>(i)));
  }
  for (int i = 0; i < 8; ++i) {
    q.push(keyed(10.0, 200 + i, static_cast<std::uint64_t>(i)));
  }
  RealTime last = -1.0;
  std::size_t n = 0;
  while (!q.empty()) {
    const RealTime t = q.pop().time;
    EXPECT_GE(t, last);
    last = t;
    ++n;
  }
  EXPECT_EQ(n, 108u);
}

TEST(LadderQueue, UpcomingExposesPopOrderTail) {
  LadderQueue q;
  for (int i = 0; i < 20; ++i) {
    q.push(keyed(static_cast<double>(i), 0, static_cast<std::uint64_t>(i)));
  }
  std::size_t count = 0;
  const Event* tail = q.upcoming(4, count);
  ASSERT_GE(count, 1u);
  ASSERT_LE(count, 4u);
  // out[count-1] pops first, and the exposed tail is in reverse pop order.
  EXPECT_DOUBLE_EQ(tail[count - 1].time, q.top().time);
  for (std::size_t i = 1; i < count; ++i) {
    EXPECT_LE(tail[i].time, tail[i - 1].time);
  }
}

TEST(LadderQueue, ClearEmptiesAndQueueIsReusable) {
  LadderQueue q;
  for (int i = 0; i < 300; ++i) {
    q.push(keyed(static_cast<double>(i % 17), 0,
                 static_cast<std::uint64_t>(i)));
  }
  q.pop();
  q.clear();
  EXPECT_TRUE(q.empty());
  q.push(keyed(2.0, 0, 0));
  q.push(keyed(1.0, 0, 1));
  EXPECT_DOUBLE_EQ(q.pop().time, 1.0);
  EXPECT_DOUBLE_EQ(q.pop().time, 2.0);
}

// The core property, fuzzed: ladder pops == heap pops for random event
// sets with heavy time ties, negative/zero times, and random interleaving.
TEST(LadderQueue, MatchesHeapOnRandomSets) {
  Rng rng(20090817);
  for (int round = 0; round < 20; ++round) {
    std::vector<Event> events;
    const int n = 100 + static_cast<int>(rng.uniform_index(2000));
    for (int i = 0; i < n; ++i) {
      // Coarse grid on purpose: plenty of exact ties across sources.
      const double t = static_cast<double>(rng.uniform_index(40)) * 0.5;
      events.push_back(keyed(t, static_cast<NodeId>(rng.uniform_index(7)) - 1,
                             static_cast<std::uint64_t>(i),
                             rng.uniform(0.0, 1.0) < 0.1));
    }
    SCOPED_TRACE(testing::Message() << "round " << round);
    expect_same_pops(events);
    if (testing::Test::HasFailure()) break;
  }
}

// Same property under interleaved push/pop, which is how the simulator
// drives the queue.
TEST(LadderQueue, FacadeMatchesHeapUnderInterleaving) {
  Rng rng(424242);
  ReferenceHeap heap;
  LadderQueue ladder;
  int rank = 0;
  std::uint64_t pops = 0;
  for (int round = 0; round < 6000; ++round) {
    if (heap.empty() || rng.uniform(0.0, 1.0) < 0.6) {
      const Event e = keyed(rng.uniform(0.0, 100.0),
                            static_cast<NodeId>(rng.uniform_index(9)),
                            static_cast<std::uint64_t>(rank++));
      heap.push(e);
      ladder.push(e);
    } else {
      const Event a = heap.pop();
      const Event b = ladder.pop();
      ++pops;
      ASSERT_DOUBLE_EQ(a.time, b.time);
      ASSERT_EQ(a.source, b.source);
      ASSERT_EQ(a.seq, b.seq);
    }
  }
  while (!heap.empty()) {
    const Event a = heap.pop();
    const Event b = ladder.pop();
    ++pops;
    ASSERT_DOUBLE_EQ(a.time, b.time);
    ASSERT_EQ(a.seq, b.seq);
  }
  EXPECT_TRUE(ladder.empty());
  EXPECT_EQ(ladder.stats().pops, pops);
  EXPECT_EQ(ladder.stats().pushes, static_cast<std::uint64_t>(rank));
}

TEST(LadderQueue, ReserveAndCapacityAccounting) {
  LadderQueue q;
  q.reserve(1024);
  EXPECT_GE(q.capacity(), 1024u);
  for (int i = 0; i < 2000; ++i) {
    q.push(keyed(static_cast<double>(i % 97), 0,
                 static_cast<std::uint64_t>(i)));
  }
  EXPECT_GE(q.capacity(), q.size());
}

// A burst must not pin its footprint: once it has drained into a small
// steady population, the retained storage (pool and overflow carrier
// included) follows that population, across many re-buckets.
TEST(LadderQueue, PooledStorageFollowsTheLivePopulation) {
  LadderQueue q;
  Rng rng(99);
  std::uint64_t seq = 0;
  for (int i = 0; i < 10000; ++i) {
    q.push(keyed(rng.uniform(0.0, 100.0), 0, seq++));
  }
  RealTime last = 0.0;
  while (q.size() > 100) {
    last = q.pop().time;
  }
  const std::uint64_t rebuckets = q.impl_stats().rebuckets;
  for (int i = 0; i < 100000; ++i) {
    const Event e = q.pop();
    ASSERT_GE(e.time, last);
    last = e.time;
    q.push(keyed(e.time + rng.uniform(1.0, 50.0), 0, seq++));
  }
  EXPECT_GE(q.impl_stats().rebuckets, rebuckets + 10);
  EXPECT_EQ(q.size(), 100u);
  EXPECT_LE(q.capacity(), 8 * std::max<std::size_t>(q.size(), 256));
}

}  // namespace
}  // namespace tbcs::sim
