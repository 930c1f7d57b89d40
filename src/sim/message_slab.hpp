// Chunked, delivery-time-binned storage for in-flight message payloads.
//
// Events used to embed a full Message (40 bytes), making every heap
// sift copy ~96 bytes.  The slab keeps payloads stationary and hands the
// queue a 4-byte handle.  PR 7 replaces the old LIFO free list (which
// scatters messages that fire together all over the arena) with bump
// allocation inside fixed 512-message chunks, binned by delivery time:
// put(m, t) appends to the current chunk of t's time bin, so payloads that
// will be taken in the same window sit contiguously and the delivery loop
// walks, not hops.  Chunks recycle whole: a chunk returns to the free list
// once fully filled and fully drained, so steady state allocates nothing.
#pragma once

#include <cassert>
#include <cstdint>
#include <memory>
#include <vector>

#include "sim/message.hpp"

namespace tbcs::sim {

class MessageSlab {
 public:
  using Handle = std::uint32_t;
  static constexpr Handle kNull = 0xffffffffu;

  /// Stores a copy of `m`, binned by delivery time `t`; the handle stays
  /// valid until take()/clear().
  Handle put(const Message& m, double t) {
    const double q = t * kInvBinWidth;
    const std::size_t bin = (q > 0.0 && q < 9.0e18)
                                ? (static_cast<std::uint64_t>(q) & (kBins - 1))
                                : 0;
    std::uint32_t c = cur_[bin];
    if (c == kNoChunk || chunks_[c]->bump == kChunk) {
      c = grab_chunk();
      cur_[bin] = c;
    }
    Chunk& ch = *chunks_[c];
    const std::uint32_t off = ch.bump++;
    ch.msgs[off] = m;
    ++ch.live;
    ++live_;
    return c * kChunk + off;
  }

  /// Legacy entry point for callers without a delivery time.
  Handle put(const Message& m) { return put(m, 0.0); }

  /// Removes and returns the payload; the chunk recycles once drained.
  Message take(Handle h) {
    Chunk& ch = *chunks_[h / kChunk];
    assert(ch.live > 0);
    const Message out = ch.msgs[h % kChunk];
    --live_;
    if (--ch.live == 0 && ch.bump == kChunk) recycle(h / kChunk);
    return out;
  }

  const Message& peek(Handle h) const {
    assert(h / kChunk < chunks_.size());
    return chunks_[h / kChunk]->msgs[h % kChunk];
  }

  /// Drops all payloads (used together with LadderQueue::clear()).
  void clear() {
    free_.clear();
    for (std::uint32_t c = 0; c < chunks_.size(); ++c) {
      chunks_[c]->bump = 0;
      chunks_[c]->live = 0;
      free_.push_back(c);
    }
    for (std::uint32_t& c : cur_) c = kNoChunk;
    live_ = 0;
  }

  /// Pre-sizes the arena for an expected in-flight population.
  void reserve(std::size_t expected) {
    const std::size_t want = (expected + kChunk - 1) / kChunk;
    while (chunks_.size() < want) {
      chunks_.push_back(std::make_unique<Chunk>());
      free_.push_back(static_cast<std::uint32_t>(chunks_.size() - 1));
    }
  }

  std::size_t live() const { return live_; }
  std::size_t capacity() const { return chunks_.size() * kChunk; }

 private:
  static constexpr std::uint32_t kChunk = 512;
  static constexpr std::size_t kBins = 8;
  // ~one bin per typical delay quantum; only locality depends on this.
  static constexpr double kInvBinWidth = 4.0;
  static constexpr std::uint32_t kNoChunk = 0xffffffffu;

  struct Chunk {
    Message msgs[kChunk];
    std::uint32_t bump = 0;  // next unwritten slot
    std::uint32_t live = 0;  // stored minus taken
  };

  std::uint32_t grab_chunk() {
    if (!free_.empty()) {
      const std::uint32_t c = free_.back();
      free_.pop_back();
      chunks_[c]->bump = 0;
      chunks_[c]->live = 0;
      return c;
    }
    chunks_.push_back(std::make_unique<Chunk>());
    return static_cast<std::uint32_t>(chunks_.size() - 1);
  }

  void recycle(std::uint32_t c) {
    // A bin may still point at the (full) chunk; detach it so the next
    // owner's bump restart can't interleave two bins in one chunk.
    for (std::uint32_t& cc : cur_) {
      if (cc == c) cc = kNoChunk;
    }
    free_.push_back(c);
  }

  std::vector<std::unique_ptr<Chunk>> chunks_;
  std::vector<std::uint32_t> free_;
  std::uint32_t cur_[kBins] = {kNoChunk, kNoChunk, kNoChunk, kNoChunk,
                               kNoChunk, kNoChunk, kNoChunk, kNoChunk};
  std::size_t live_ = 0;
};

}  // namespace tbcs::sim
