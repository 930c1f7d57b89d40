// queue_race — throughput gate of the ladder queue against the reference
// 4-ary heap at large n.  Takes no arguments.
//
// Runs the classic hold model on both queues: fill to kPopulation events,
// then kOps times pop the next event and push its successor at pop time +
// a delay drawn from U[0.25, 1], keyed like a simulator event (random
// source node, per-source sequence number).  The sizes mirror the serial
// line n = 100000 run (queue peak ~300k events, 48 B each — far outside
// the caches, which is where the heap loses).  Both queues replay the same
// delay and source streams and must pop the same key sequence; the time
// per hold op is the best of kRepeats.
//
// Prints both figures and the ratio heap / ladder; exits 1 when the ladder
// is not at least kMinRatio times faster, or when the pop sequences
// differ.  The ratio comes from one process run back to back, so it does
// not depend on absolute machine speed.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "sim/ladder_queue.hpp"
#include "sim/rng.hpp"
#include "support/reference_heap.hpp"

namespace {

using tbcs::sim::Event;

constexpr std::uint32_t kNodes = 100000;
constexpr std::size_t kPopulation = 300000;
constexpr std::size_t kOps = 3000000;
constexpr int kRepeats = 3;
constexpr double kMinRatio = 1.2;

struct Result {
  double ns_per_op = 0.0;
  std::uint64_t checksum = 0;  // over the popped (source, seq) keys
};

template <class Queue>
Result hold(const std::vector<double>& delays,
            const std::vector<std::uint32_t>& sources) {
  Queue q;
  std::vector<std::uint64_t> next_seq(kNodes, 0);
  std::size_t r = 0;
  const auto make = [&](double now) {
    Event e;
    const std::uint32_t s = sources[r % sources.size()];
    e.time = now + delays[r % delays.size()];
    e.source = static_cast<tbcs::sim::NodeId>(s);
    e.seq = next_seq[s]++;
    ++r;
    return e;
  };
  for (std::size_t i = 0; i < kPopulation; ++i) q.push(make(0.0));

  Result out;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < kOps; ++i) {
    const Event e = q.pop();
    out.checksum = out.checksum * 1099511628211ull ^
                   (static_cast<std::uint64_t>(e.source) << 32 ^ e.seq);
    q.push(make(e.time));
  }
  const auto t1 = std::chrono::steady_clock::now();
  out.ns_per_op = std::chrono::duration<double, std::nano>(t1 - t0).count() /
                  static_cast<double>(kOps);
  return out;
}

}  // namespace

int main() {
  tbcs::sim::Rng rng(20090817);
  std::vector<double> delays(1u << 20);
  for (double& d : delays) d = rng.uniform(0.25, 1.0);
  std::vector<std::uint32_t> sources(1u << 20);
  for (std::uint32_t& s : sources) {
    s = static_cast<std::uint32_t>(rng.uniform_index(kNodes));
  }

  Result ladder, heap;
  ladder.ns_per_op = heap.ns_per_op = 1e300;
  for (int k = 0; k < kRepeats; ++k) {
    const Result l = hold<tbcs::sim::LadderQueue>(delays, sources);
    const Result h =
        hold<tbcs::testing_support::ReferenceHeap>(delays, sources);
    ladder.ns_per_op = std::min(ladder.ns_per_op, l.ns_per_op);
    heap.ns_per_op = std::min(heap.ns_per_op, h.ns_per_op);
    ladder.checksum = l.checksum;
    heap.checksum = h.checksum;
  }
  const double ratio = heap.ns_per_op / ladder.ns_per_op;
  std::printf("hold model, %zu events, %zu ops, best of %d: ladder %.1f ns/op"
              ", heap %.1f ns/op (%.2fx)\n",
              kPopulation, kOps, kRepeats, ladder.ns_per_op, heap.ns_per_op,
              ratio);
  if (ladder.checksum != heap.checksum) {
    std::printf("FAIL: ladder and heap popped different key sequences\n");
    return 1;
  }
  if (ratio < kMinRatio) {
    std::printf("FAIL: ladder < %.2fx heap at %zu events\n", kMinRatio,
                kPopulation);
    return 1;
  }
  std::printf("queue_race: OK\n");
  return 0;
}
