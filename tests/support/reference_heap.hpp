// Reference event queue for the queue tests: an implicit 4-ary min-heap
// under the canonical event_before() key.  It is the simulator's former
// production queue, kept only as an oracle — obviously correct, and its
// pop order is the order the ladder queue must reproduce.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "sim/event.hpp"

namespace tbcs::testing_support {

class ReferenceHeap {
 public:
  void push(const sim::Event& e) {
    heap_.push_back(e);
    sift_up(heap_.size() - 1);
  }
  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }
  const sim::Event& top() const { return heap_.front(); }

  sim::Event pop() {
    const sim::Event out = heap_.front();
    const sim::Event last = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) {
      heap_.front() = last;
      sift_down(0);
    }
    return out;
  }

  void reserve(std::size_t n) { heap_.reserve(n); }

 private:
  static constexpr std::size_t kArity = 4;

  void sift_up(std::size_t i) {
    const sim::Event e = heap_[i];
    while (i > 0) {
      const std::size_t parent = (i - 1) / kArity;
      if (!sim::event_before(e, heap_[parent])) break;
      heap_[i] = heap_[parent];
      i = parent;
    }
    heap_[i] = e;
  }

  void sift_down(std::size_t i) {
    const sim::Event e = heap_[i];
    const std::size_t n = heap_.size();
    while (true) {
      const std::size_t first = i * kArity + 1;
      if (first >= n) break;
      std::size_t best = first;
      const std::size_t last = std::min(first + kArity, n);
      for (std::size_t c = first + 1; c < last; ++c) {
        if (sim::event_before(heap_[c], heap_[best])) best = c;
      }
      if (!sim::event_before(heap_[best], e)) break;
      heap_[i] = heap_[best];
      i = best;
    }
    heap_[i] = e;
  }

  std::vector<sim::Event> heap_;
};

}  // namespace tbcs::testing_support
