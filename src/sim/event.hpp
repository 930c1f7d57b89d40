// The simulator's event record and its schedule-order-independent key.
//
// Every event carries the key (time, source node, per-source sequence
// number, twin flag), stamped at creation.  Ties at equal times are broken
// by who *caused* the event (and that node's own creation order), never by
// global insertion order — so the pop sequence of any queue ordered by
// event_before() is a pure function of the event set, no matter how pushes
// from different shards (or different queue implementations) interleave.
//
// Events are 48 bytes: message payloads live in a MessageSlab (the event
// carries a handle) and the kind-specific fields overlay each other, so
// moving one inside a heap sift or a bucket sort copies half a cache line
// instead of ~96 bytes.
#pragma once

#include <cstdint>

#include "sim/message_slab.hpp"
#include "sim/types.hpp"

namespace tbcs::sim {

enum class EventKind : std::uint8_t {
  kMessageDelivery,  // message `msg` (slab handle) delivered to `node` over `edge`
  kTimer,            // timer `slot` of `node` fires (synthesized by the wheel)
  kRateChange,       // hardware clock rate of `node` changes to `rate`
  kLinkChange,       // link {node, node2} = edge `edge` goes up/down
  kProbe,            // periodic observer callback
  kCrash,            // `node` crashes: silent, timers suppressed, links cut
  kRecover,          // `node` re-joins: links restored, on_rejoin() runs
  kJoin,             // churn: `node` (re)enters the network (departed bit cleared)
  kLeave,            // churn: `node` departs (silent, timers suppressed)
  kScramble,         // `node`'s algorithm state set adversarially (on_scramble);
                     //   `generation` indexes the simulator's payload table
};

struct Event {
  RealTime time = 0.0;
  std::uint64_t seq = 0;  // per-source creation order (stamped by the simulator)
  union {
    double rate;                // kRateChange: the new hardware rate
    std::uint64_t generation;   // kScramble: index into the payload table
  };
  NodeId node = kInvalidNode;
  union {
    NodeId node2;               // kLinkChange: second endpoint
    MessageSlab::Handle msg;    // kMessageDelivery: payload handle
  };
  std::uint32_t edge = 0xffffffffu;  // kMessageDelivery / kLinkChange
  NodeId source = kInvalidNode;  // causing node (kInvalidNode: system, e.g. probes)
  EventKind kind = EventKind::kProbe;
  std::uint8_t slot = 0;         // kTimer
  bool link_up = true;           // kLinkChange: target state
  bool rate_from_policy = true;  // injected rate changes do not re-poll the policy
  // Sharded engine: the mirror copy of a cut-edge link change, processed in
  // the second endpoint's shard.  Carries the same (time, source, seq) key
  // as its primary; flips only the local link state and runs only the local
  // endpoint's callback, and is excluded from event/trace accounting.
  bool twin = false;

  Event() : rate(1.0), node2(kInvalidNode) {}
};

static_assert(sizeof(Event) <= 48, "Event must stay within one cache line");

/// The canonical event order.  The ladder queue and the timer wheel's
/// merged stream both pop in exactly this order, which is what makes
/// `--shards` output byte-identical.
inline bool event_before(const Event& a, const Event& b) {
  if (a.time != b.time) return a.time < b.time;
  if (a.source != b.source) return a.source < b.source;
  if (a.seq != b.seq) return a.seq < b.seq;
  return a.twin < b.twin;  // a cut-edge mirror sorts after its primary
}

}  // namespace tbcs::sim
