#include "sim/simulator.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <limits>
#include <stdexcept>
#include <string>
#include <tuple>

#include "obs/flight_recorder.hpp"

namespace tbcs::sim {

// NodeServices implementation handed to node callbacks; one instance lives
// per lane and is re-pinned to the calling node, so the per-event switch
// constructs nothing.
class Simulator::ServicesImpl final : public NodeServices {
 public:
  ServicesImpl(Simulator& sim, Lane& lane) : sim_(sim), lane_(lane) {}

  NodeServices& pin(NodeId v) {
    v_ = v;
    return *this;
  }

  NodeId id() const override { return v_; }
  ClockValue hardware_now() const override {
    return sim_.clock_slots_[sim_.slot(v_)].value_at(lane_.now);
  }
  void broadcast(const Message& m) override {
    sim_.do_broadcast(lane_, v_, m);
  }
  void set_timer(int slot, ClockValue target) override {
    sim_.arm_timer(lane_, v_, slot, target);
  }
  void cancel_timer(int slot) override {
    sim_.disarm_timer(lane_, v_, slot);
  }

 private:
  Simulator& sim_;
  Lane& lane_;
  NodeId v_ = kInvalidNode;
};

Simulator::Lane::Lane() = default;
Simulator::Lane::~Lane() = default;
Simulator::Lane::Lane(Lane&&) noexcept = default;
Simulator::Lane& Simulator::Lane::operator=(Lane&&) noexcept = default;

Simulator::Simulator(const graph::Graph& g, SimConfig cfg)
    : graph_(g),
      csr_(g.csr()),
      cfg_(cfg),
      nodes_(static_cast<std::size_t>(g.num_nodes())),
      drift_(std::make_shared<ConstantDrift>(1.0)),
      delay_(std::make_shared<FixedDelay>(0.0)) {
  const auto n = static_cast<std::size_t>(g.num_nodes());
  slot_of_.resize(n);
  for (std::size_t v = 0; v < n; ++v) {
    slot_of_[v] = static_cast<std::uint32_t>(v);  // identity until sharded
  }
  clock_slots_.assign(n, HardwareClock{});
  timer_slots_.assign(n * static_cast<std::size_t>(kMaxTimerSlots),
                      TimerState{});
  status_slots_.assign(n, 0);
  // Sized here, not in setup(): schedule_link_change()/schedule_crash()
  // stamp event keys before the first run_until(), and the counters must
  // never reset once keys have been handed out.
  next_seq_.assign(n + 1, 0);
  init_lanes(1);
}

Simulator::~Simulator() { stop_workers(); }

void Simulator::init_lanes(std::size_t count) {
  lanes_ = std::vector<Lane>(count);
  for (std::size_t i = 0; i < count; ++i) {
    Lane& ln = lanes_[i];
    ln.index = static_cast<int>(i);
    ln.link_up.assign(graph_.num_edges(), 1);
    ln.outbox.resize(count);
    ln.services = std::make_unique<ServicesImpl>(*this, ln);
  }
}

void Simulator::configure_shards(int shards, const std::string& strategy,
                                 int min_nodes_per_shard) {
  if (setup_done_) {
    throw std::logic_error(
        "Simulator::configure_shards must be called before the first run");
  }
  const auto n = static_cast<std::size_t>(graph_.num_nodes());
  if (shards <= 0) {
    windowed_ = false;
    part_.reset();
    shards_requested_ = 0;
    partition_strategy_.clear();
    cut_dist_.clear();
    for (std::size_t v = 0; v < n; ++v) {
      slot_of_[v] = static_cast<std::uint32_t>(v);
    }
    init_lanes(1);
    return;
  }
  shards_requested_ = shards;
  // Resolved so partition_strategy() (and the stats "engine" block)
  // reports the strategy actually used.
  partition_strategy_ = graph::Partition::resolve_strategy(graph_, strategy);
  int effective = std::min(shards, graph_.num_nodes());
  if (min_nodes_per_shard > 0) {
    const int cap = std::max(
        1, graph_.num_nodes() / std::max(1, min_nodes_per_shard));
    effective = std::min(effective, cap);
  }
  if (effective < shards) {
    // Below ~min_nodes_per_shard nodes per lane the per-window barrier
    // cost outweighs the parallel work, so extra lanes are a slowdown,
    // not a speedup.  Warn once per process — sweeps would otherwise
    // print this for every run.
    static std::atomic<bool> warned{false};
    if (!warned.exchange(true, std::memory_order_relaxed)) {
      std::fprintf(stderr,
                   "[tbcs] warning: clamping --shards %d to %d (%d nodes, "
                   "min %d nodes per shard); the effective count is "
                   "reported in the stats JSON \"engine\" block\n",
                   shards, effective, graph_.num_nodes(),
                   min_nodes_per_shard);
    }
  }
  part_ = std::make_unique<graph::Partition>(
      graph::Partition::make(graph_, effective, partition_strategy_));
  windowed_ = true;
  link_up_.assign(graph_.num_edges(), 1);
  // Slot permutation: each shard's members become one contiguous block of
  // the hot arrays, in member (ascending id) order.  With one shard this
  // is the identity.  Status bits survive the permutation (a churn plan
  // may mark nodes initially absent before configuring shards); clocks and
  // timers are still default-constructed here, so only status moves.
  std::vector<std::uint8_t> status_by_node(n);
  for (std::size_t v = 0; v < n; ++v) status_by_node[v] = status_slots_[slot(v)];
  std::uint32_t next_slot = 0;
  for (int s = 0; s < part_->num_shards(); ++s) {
    for (const NodeId v : part_->members(s)) {
      slot_of_[static_cast<std::size_t>(v)] = next_slot++;
    }
  }
  for (std::size_t v = 0; v < n; ++v) status_slots_[slot(v)] = status_by_node[v];
  compute_cut_dist();
  init_lanes(static_cast<std::size_t>(effective));
}

void Simulator::compute_cut_dist() {
  // Cut distances for the cut-aware horizon: multi-source BFS (over
  // intra-shard edges) from the cut-edge endpoints, capped at kMaxCutDist.
  // An event at a distance-d node needs >= d intra-shard hops before
  // anything can happen at a cut node.  Computed before any event can be
  // scheduled against the partition — at configure_shards, and again at
  // repartition (whose event migration re-files every queued time into
  // the boundary heaps) — so every queue push and timer arm lands in the
  // right heap.
  const auto n = static_cast<std::size_t>(graph_.num_nodes());
  cut_dist_.assign(n, static_cast<std::uint8_t>(kMaxCutDist));
  if (part_->num_shards() > 1) {
    std::vector<NodeId> frontier;
    for (const graph::Partition::CutEdge& ce : part_->cut_edges()) {
      for (const NodeId v : {ce.u, ce.v}) {
        if (cut_dist_[static_cast<std::size_t>(v)] != 0) {
          cut_dist_[static_cast<std::size_t>(v)] = 0;
          frontier.push_back(v);
        }
      }
    }
    std::vector<NodeId> next;
    for (int d = 1; d < kMaxCutDist && !frontier.empty(); ++d) {
      next.clear();
      for (const NodeId u : frontier) {
        const int su = part_->shard_of(u);
        for (const graph::Graph::Arc* a = csr_->begin(u); a != csr_->end(u);
             ++a) {
          if (part_->shard_of(a->to) != su) continue;
          std::uint8_t& dist = cut_dist_[static_cast<std::size_t>(a->to)];
          if (dist > d) {
            dist = static_cast<std::uint8_t>(d);
            next.push_back(a->to);
          }
        }
      }
      frontier.swap(next);
    }
  }
}

void Simulator::set_node(NodeId v, std::unique_ptr<Node> node) {
  assert(!setup_done_ && "nodes must be installed before the first run");
  nodes_[static_cast<std::size_t>(v)] = std::move(node);
}

void Simulator::set_all_nodes(
    const std::function<std::unique_ptr<Node>(NodeId)>& factory) {
  for (NodeId v = 0; v < graph_.num_nodes(); ++v) set_node(v, factory(v));
}

void Simulator::set_drift_policy(std::shared_ptr<DriftPolicy> policy) {
  assert(!setup_done_);
  drift_ = std::move(policy);
}

void Simulator::set_delay_policy(std::shared_ptr<DelayPolicy> policy) {
  delay_ = std::move(policy);
  delay_plans_ = delay_->plans_deliveries();
}

void Simulator::set_observer(Observer observer) {
  observer_ = std::move(observer);
}

void Simulator::set_window_observer(WindowObserver observer) {
  window_observer_ = std::move(observer);
}

ClockValue Simulator::logical_at(NodeId v, RealTime t) const {
  const std::size_t sl = slot(v);
  if ((status_slots_[sl] & kAwakeBit) == 0) return 0.0;
  return nodes_[static_cast<std::size_t>(v)]->logical_at(
      clock_slots_[sl].value_at(t));
}

ClockValue Simulator::logical(NodeId v) const { return logical_at(v, now_); }

void Simulator::setup() {
  if (setup_done_) return;
  setup_done_ = true;
  delay_->prepare(graph_.num_nodes());
  if (windowed_) {
    lookahead_ = delay_->min_delay();
    if (!(lookahead_ > 0.0)) {
      throw std::invalid_argument(
          "Simulator: sharded execution requires a delay policy that "
          "certifies a positive min_delay() lookahead (fixed or "
          "lower-bounded delays); this policy cannot");
    }
    compute_lane_lookahead();
    touch_marks_.assign(static_cast<std::size_t>(graph_.num_nodes()), 0);
  }
  // Pre-size the per-lane hot structures from the topology so warm-up
  // never pays growth, and calibrate each lane's timer wheel to its
  // member count (must precede the first arm below).
  for (std::size_t i = 0; i < lanes_.size(); ++i) {
    Lane& ln = lanes_[i];
    const std::size_t members =
        windowed_ ? part_->members(static_cast<int>(i)).size()
                  : static_cast<std::size_t>(graph_.num_nodes());
    ln.queue.reserve(members * 2);
    ln.slab.reserve(members);
    ln.wheel.configure(members);
    ln.wheel.reserve(members * 2);
  }
  for (NodeId v = 0; v < graph_.num_nodes(); ++v) {
    if (!nodes_[static_cast<std::size_t>(v)]) {
      throw std::logic_error("Simulator: node " + std::to_string(v) +
                             " has no algorithm installed");
    }
    clock_slots_[slot(v)].set_rate(0.0, drift_->initial_rate(v));
    schedule_next_rate_change(v, 0.0);
  }
  if (cfg_.wake_all_at_zero) {
    for (NodeId v = 0; v < graph_.num_nodes(); ++v) {
      if ((status_slots_[slot(v)] & kDepartedBit) != 0) continue;  // churn
      wake_node(lane_of(v), v, nullptr);
    }
  } else {
    if ((status_slots_[slot(cfg_.root)] & kDepartedBit) != 0) {
      throw std::invalid_argument(
          "Simulator: the flooding-initialization root is initially absent; "
          "pick a present root or use wake_all_at_zero");
    }
    wake_node(lane_of(cfg_.root), cfg_.root, nullptr);
    for (const NodeId v : cfg_.extra_roots) {
      if ((status_slots_[slot(v)] & (kAwakeBit | kDepartedBit)) == 0) {
        wake_node(lane_of(v), v, nullptr);
      }
    }
  }
  if (cfg_.probe_interval > 0.0) {
    if (windowed_) {
      // Probes never enter a lane queue: the coordinator holds the next
      // probe time and fires it at the matching window barrier.
      probe_next_ = cfg_.probe_interval;
      ++probe_canon_pushes_;
    } else {
      Event probe;
      probe.time = cfg_.probe_interval;
      probe.kind = EventKind::kProbe;
      push_event(probe, kInvalidNode);
    }
  }
}

void Simulator::compute_lane_lookahead() {
  // Per-lane lookahead bounds (the boundary *levels* come from
  // compute_cut_dist, before any event is filed against them): la_out is
  // the min per-edge delay bound over a lane's outgoing cut arcs,
  // delta_intra over its intra-shard arcs.  Both are floored at the
  // global min_delay() — per-edge bounds certify *at least* the global
  // one, so a policy violating that contract is clamped, not trusted.
  // Lanes with no outgoing cut arcs never bound the horizon.
  if (lanes_.size() <= 1) return;
  for (const graph::Partition::CutEdge& ce : part_->cut_edges()) {
    const Duration uv = delay_->min_delay(ce.u, ce.v);
    const Duration vu = delay_->min_delay(ce.v, ce.u);
    Lane& lu = lanes_[static_cast<std::size_t>(ce.su)];
    Lane& lv = lanes_[static_cast<std::size_t>(ce.sv)];
    lu.la_out = std::min(lu.la_out, std::max(uv, lookahead_));
    lv.la_out = std::min(lv.la_out, std::max(vu, lookahead_));
  }
  for (NodeId u = 0; u < graph_.num_nodes(); ++u) {
    const int su = part_->shard_of(u);
    Lane& ln = lanes_[static_cast<std::size_t>(su)];
    for (const graph::Graph::Arc* a = csr_->begin(u); a != csr_->end(u);
         ++a) {
      if (part_->shard_of(a->to) != su) continue;
      ln.delta_intra = std::min(
          ln.delta_intra,
          std::max(delay_->min_delay(u, a->to), lookahead_));
    }
  }
}

// ---- event creation ---------------------------------------------------------

void Simulator::note_queued(Lane& dest, NodeId a, NodeId b, RealTime t) {
  // Only called when windowed with >1 lane (cut_dist_ is empty
  // otherwise).  A push during a window only ever targets the pushing
  // lane's own queue, so the heaps need no locking.
  if (cut_dist_.empty() || a == kInvalidNode) return;
  std::uint8_t d = cut_dist_[static_cast<std::size_t>(a)];
  if (b != kInvalidNode) {
    d = std::min(d, cut_dist_[static_cast<std::size_t>(b)]);
  }
  if (d < kMaxCutDist) dest.bnd[d].push(t);
}

void Simulator::push_event(Event e, NodeId source) {
  stamp(e, source);
  Lane& dest = lane_of(e.node);
  dest.queue.push(e);
  if (windowed_) {
    ++dest.canon_pushes;
    note_queued(dest, e.node, kInvalidNode, e.time);
  }
}

void Simulator::push_link_change(Event e, NodeId source) {
  stamp(e, source);
  Lane& dest = lane_of(e.node);
  dest.queue.push(e);
  if (windowed_) {
    ++dest.canon_pushes;
    // A link-change callback can broadcast from either endpoint, so the
    // horizon treats the event as sitting at the better (lower) of the
    // two boundary levels.
    note_queued(dest, e.node, e.node2, e.time);
    Lane& other = lane_of(e.node2);
    if (&other != &dest) {
      // Cut edge: mirror the flip into the second endpoint's lane under the
      // same key so both lanes apply it at the same point of their local
      // order.  The twin is excluded from all canonical accounting.
      Event tw = e;
      tw.twin = true;
      other.queue.push(tw);
      ++other.twins_in_queue;
      note_queued(other, e.node, e.node2, e.time);
    }
  }
}

void Simulator::push_delivery(Lane& ln, Event e, NodeId source,
                              const Message& m) {
  stamp(e, source);
  if (!windowed_) {
    e.msg = ln.slab.put(m, e.time);
    ln.queue.push(e);
    return;
  }
  ++ln.canon_pushes;
  Lane& dest = lanes_[static_cast<std::size_t>(part_->shard_of(e.node))];
  if (&dest == &ln || !in_window_) {
    // Local delivery, or coordinator context (setup / between windows):
    // straight into the destination queue.
    e.msg = dest.slab.put(m, e.time);
    dest.queue.push(e);
    note_queued(dest, e.node, kInvalidNode, e.time);
  } else {
    // Cross-shard: the conservative horizon guarantees e.time >= W_end, so
    // parking it in the outbox until the barrier loses nothing.
    assert(e.time >= win_end_ - kTimeTolerance &&
           "cross-shard delivery below the safe horizon");
    ln.outbox[static_cast<std::size_t>(dest.index)].push_back(
        Lane::OutMsg{e, m});
  }
}

// ---- execution --------------------------------------------------------------

bool Simulator::next_key(Lane& ln, RealTime& t, TimerWheel::Fired& tf,
                         bool& timer_first) {
  // The merged pop stream: queue top vs wheel peek under the canonical
  // (time, source, seq) order.  A wheel entry's source is its node and its
  // twin flag is false, so the comparison needs only the first three key
  // fields (per-source seqs are unique, so full ties are impossible).
  const bool have_t = ln.wheel.peek(tf);
  if (ln.queue.empty()) {
    if (!have_t) return false;
    timer_first = true;
    t = tf.time;
    return true;
  }
  const Event& top = ln.queue.top();
  if (!have_t) {
    timer_first = false;
    t = top.time;
    return true;
  }
  timer_first = tf.time != top.time     ? tf.time < top.time
                : tf.node != top.source ? tf.node < top.source
                                        : tf.seq < top.seq;
  t = timer_first ? tf.time : top.time;
  return true;
}

Event Simulator::pop_next(Lane& ln, const TimerWheel::Fired& tf,
                          bool timer_first) {
  if (!timer_first) {
    Event e = ln.queue.pop();
    prefetch_upcoming(ln);
    return e;
  }
  ln.wheel.pop();
  Event e;
  e.time = tf.time;
  e.seq = tf.seq;
  e.node = tf.node;
  e.source = tf.node;
  e.slot = tf.slot;
  e.kind = EventKind::kTimer;
  return e;
}

void Simulator::prefetch_upcoming(Lane& ln) {
#if defined(__GNUC__) || defined(__clang__)
  if (ln.queue.empty()) return;
  std::size_t count = 0;
  const Event* up = ln.queue.upcoming(4, count);
  for (std::size_t i = 0; i < count; ++i) {
    const NodeId v = up[i].node;
    if (v == kInvalidNode) continue;
    const std::size_t sl = slot(v);
    __builtin_prefetch(&clock_slots_[sl]);
    __builtin_prefetch(&status_slots_[sl]);
  }
#else
  (void)ln;
#endif
}

void Simulator::run_until(RealTime t_end) {
  // A Graph mutated after our CSR snapshot means every cached edge index
  // and adjacency walk is suspect; the serial engine re-snapshots via
  // grow_topology(), the sharded engine refuses mid-run growth outright.
  assert(csr_->version() == graph_.version() &&
         "Graph mutated after the CSR snapshot; call grow_topology() "
         "before running");
  setup();
  if (windowed_) {
    run_windowed(t_end);
    return;
  }
  Lane& ln = lanes_[0];
  RealTime t = 0.0;
  TimerWheel::Fired tf;
  bool timer_first = false;
  while (next_key(ln, t, tf, timer_first) && t <= t_end) {
    Event e = pop_next(ln, tf, timer_first);
    assert(e.time >= now_ - kTimeTolerance && "event queue went backwards");
    now_ = std::max(now_, e.time);
    ln.now = now_;
    ++ln.events;
    const bool observable = process(ln, e);
    if (observable && observer_) observer_(*this, now_);
    if (progress_interval_ > 0.0 && (ln.events & 0x3fffu) == 0) {
      maybe_progress(false);
    }
  }
  now_ = std::max(now_, t_end);
  ln.now = now_;
}

RealTime Simulator::safe_horizon() {
  // Earliest possible cross-shard arrival, over all lanes: an event must
  // first reach one of the lane's cut nodes (boundary_time, from the lazy
  // per-distance heaps and the kMaxCutDist-hop bound), then cross
  // (la_out).  The heaps are cleaned here, on the coordinator thread
  // between windows — every entry below the lane's clock belongs to an
  // already-processed event.
  RealTime horizon = kInfinity;
  for (Lane& ln : lanes_) {
    if (!(ln.la_out < kInfinity)) continue;  // no outgoing cut arcs
    const auto clean_top = [&ln](Lane::TimeHeap& h) -> RealTime {
      while (!h.empty() && h.top() < ln.now) h.pop();
      return h.empty() ? kInfinity : h.top();
    };
    RealTime boundary = clean_top(ln.bnd[0]);
    if (ln.delta_intra < kInfinity) {
      for (int d = 1; d < kMaxCutDist; ++d) {
        boundary = std::min(
            boundary, clean_top(ln.bnd[static_cast<std::size_t>(d)]) +
                          static_cast<double>(d) * ln.delta_intra);
      }
      RealTime tn = ln.queue.empty() ? kInfinity : ln.queue.top().time;
      TimerWheel::Fired tf;
      if (ln.wheel.peek(tf)) tn = std::min(tn, tf.time);
      boundary = std::min(
          boundary, tn + static_cast<double>(kMaxCutDist) * ln.delta_intra);
    }
    horizon = std::min(horizon, boundary + ln.la_out);
  }
  return horizon;
}

void Simulator::run_windowed(RealTime t_end) {
  start_workers();
  const bool probe_active = cfg_.probe_interval > 0.0;
  // With nothing listening (no observer, no window observer, no recorder)
  // the observation cadence is pointless — windows stretch to the full
  // safe horizon.  The canonical peak is then sampled only at probes and
  // t_end, both partition-invariant, so stats stay shard-count-identical.
  const bool observed =
      observer_ != nullptr || window_observer_ != nullptr ||
      recorder_ != nullptr;
  // Observation barriers land every 4x the global min_delay().
  const Duration obs_dt = observed ? 4.0 * lookahead_ : kInfinity;
  bool t_end_flushed = false;
  for (;;) {
    RealTime t_next = kInfinity;
    for (Lane& ln : lanes_) {
      if (!ln.queue.empty()) t_next = std::min(t_next, ln.queue.top().time);
      TimerWheel::Fired tf;
      if (ln.wheel.peek(tf)) t_next = std::min(t_next, tf.time);
    }
    if (probe_active) t_next = std::min(t_next, probe_next_);
    if (t_next > t_end) break;
    // Observation cadence: obs_next_ is (re)armed only at the first
    // window after an observation barrier, when the processed set is
    // exactly the canonical events before that barrier — so t_next, and
    // with it the whole obs-barrier sequence, is a pure function of the
    // event set, identical for every shard count.  Intermediate
    // horizon-clipped barriers (whose times depend on the partition)
    // exchange outboxes and merge traces but never run observers.
    if (obs_next_ == kInfinity) obs_next_ = t_next + obs_dt;
    // Cut-aware safe horizon: nothing processed before W_end can cause an
    // event before W_end in another lane.  Never below the classic global
    // bound t_next + min_delay(); clipped by the observation cadence,
    // probes, and the caller's horizon.  The final window is inclusive so
    // events at exactly t_end are processed, matching the serial engine's
    // run_until contract.
    const RealTime horizon =
        std::max(safe_horizon(), t_next + lookahead_);
    RealTime w_end = std::min(std::min(horizon, obs_next_), t_end);
    if (probe_active) w_end = std::min(w_end, probe_next_);
    const bool probe_fires = probe_active && w_end == probe_next_;
    const bool obs_fires =
        probe_fires || w_end == obs_next_ || w_end == t_end;
    win_end_ = w_end;
    win_inclusive_ = !probe_fires && w_end == t_end;
    ++windows_;
    run_window_parallel();
    barrier_flush(w_end, probe_fires, obs_fires);
    if (w_end == obs_next_) obs_next_ = kInfinity;
    if (obs_fires && w_end == t_end) t_end_flushed = true;
  }
  now_ = std::max(now_, t_end);
  for (Lane& ln : lanes_) ln.now = now_;
  // Canonical close: every run_until ends with exactly one observation
  // flush at t_end (delivering any touches accumulated since the last
  // obs barrier), whether or not a window happened to land there — the
  // landing depends on the partition, the close must not.
  if (!t_end_flushed) {
    canon_stats_.pushes = probe_canon_pushes_;
    canon_stats_.pops = probe_canon_pops_;
    for (const Lane& ln : lanes_) {
      canon_stats_.pushes += ln.canon_pushes;
      canon_stats_.pops += ln.canon_pops;
    }
    canon_stats_.peak_size =
        std::max(canon_stats_.peak_size, canonical_pending());
    flush_observers(t_end);
  }
}

void Simulator::process_window(Lane& ln) {
  const bool track_touches = static_cast<bool>(window_observer_);
  RealTime t = 0.0;
  TimerWheel::Fired tf;
  bool timer_first = false;
  while (next_key(ln, t, tf, timer_first)) {
    if (win_inclusive_ ? t > win_end_ : t >= win_end_) break;
    Event e = pop_next(ln, tf, timer_first);
    assert(e.time >= ln.now - kTimeTolerance && "lane queue went backwards");
    ln.now = std::max(ln.now, e.time);
    if (e.twin) {
      // Mirror copy of a cut-edge link change: flip the local view and run
      // the local endpoint's callback; the primary does all accounting.
      --ln.twins_in_queue;
      apply_link_change(ln, e);
      assert(part_->shard_of(e.node2) == ln.index && "twin in node2's lane");
      if (track_touches) touch(ln, e.node2, false);  // the local endpoint
      continue;
    }
    // Wheel fires are not queue traffic: canonical pops count queue events
    // only, uniformly with the serial engine's queue stats.
    if (!timer_first) ++ln.canon_pops;
    ++ln.events;
    ln.cur_time = e.time;
    ln.cur_source = e.source;
    ln.cur_seq = e.seq;
    ln.cur_sub = 0;
    const bool observable = process(ln, e);
    if (observable && track_touches) {
      const LastEvent& le = ln.last_event;
      if (le.node != kInvalidNode) touch(ln, le.node, le.woke);
      // A cut edge's second endpoint lives in another lane; its twin marks
      // it there.
      if (le.node2 != kInvalidNode && part_->shard_of(le.node2) == ln.index) {
        touch(ln, le.node2, false);
      }
    }
  }
}

void Simulator::run_window_parallel() {
  // Dispatch fast path: when no worker lane has an event inside this
  // window, skip the condition-variable round trip and run lane 0 (often
  // also empty) inline.  Localized activity — a flood front deep inside
  // one shard — would otherwise pay the full wake/wait cost per window
  // for every idle lane.
  bool workers_have_work = false;
  for (std::size_t i = 1; i < lanes_.size(); ++i) {
    Lane& ln = lanes_[i];
    RealTime t = kInfinity;
    if (!ln.queue.empty()) t = ln.queue.top().time;
    TimerWheel::Fired tf;
    if (ln.wheel.peek(tf)) t = std::min(t, tf.time);
    if (win_inclusive_ ? t <= win_end_ : t < win_end_) {
      workers_have_work = true;
      break;
    }
  }
  if (!workers_have_work) {
    in_window_ = true;
    try {
      process_window(lanes_[0]);
    } catch (...) {
      in_window_ = false;
      throw;
    }
    in_window_ = false;
    return;
  }
  {
    std::lock_guard<std::mutex> lk(win_mu_);
    win_done_ = 0;
    in_window_ = true;
    ++win_gen_;
  }
  win_cv_.notify_all();
  try {
    process_window(lanes_[0]);
  } catch (...) {
    std::lock_guard<std::mutex> lk(win_mu_);
    if (!win_error_) win_error_ = std::current_exception();
  }
  {
    std::unique_lock<std::mutex> lk(win_mu_);
    done_cv_.wait(lk, [&] {
      return win_done_ == static_cast<int>(lanes_.size()) - 1;
    });
    in_window_ = false;
    if (win_error_) {
      std::exception_ptr err = win_error_;
      win_error_ = nullptr;
      lk.unlock();
      std::rethrow_exception(err);
    }
  }
}

void Simulator::start_workers() {
  if (!workers_.empty() || lanes_.size() <= 1) return;
  workers_.reserve(lanes_.size() - 1);
  for (std::size_t i = 1; i < lanes_.size(); ++i) {
    workers_.emplace_back([this, i] {
      std::uint64_t seen = 0;
      for (;;) {
        {
          std::unique_lock<std::mutex> lk(win_mu_);
          win_cv_.wait(lk, [&] { return shutdown_ || win_gen_ != seen; });
          if (shutdown_) return;
          seen = win_gen_;
        }
        try {
          process_window(lanes_[i]);
        } catch (...) {
          std::lock_guard<std::mutex> lk(win_mu_);
          if (!win_error_) win_error_ = std::current_exception();
        }
        {
          std::lock_guard<std::mutex> lk(win_mu_);
          ++win_done_;
        }
        done_cv_.notify_one();
      }
    });
  }
}

void Simulator::stop_workers() {
  if (workers_.empty()) return;
  {
    std::lock_guard<std::mutex> lk(win_mu_);
    shutdown_ = true;
  }
  win_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
  workers_.clear();
  shutdown_ = false;
}

std::size_t Simulator::canonical_pending() const {
  std::size_t pending = 0;
  for (const Lane& ln : lanes_) {
    pending += ln.queue.size() - ln.twins_in_queue;
  }
  if (probe_next_ < kInfinity) ++pending;
  return pending;
}

void Simulator::merge_lane_traces() {
  const auto key_less = [](const TraceEntry& x, const TraceEntry& y) {
    if (x.key_time != y.key_time) return x.key_time < y.key_time;
    if (x.key_source != y.key_source) return x.key_source < y.key_source;
    if (x.key_seq != y.key_seq) return x.key_seq < y.key_seq;
    return x.key_sub < y.key_sub;
  };
  // K-way merge over per-lane buffers kept in processing order.  Buffer
  // order within a lane encodes creation causality (an event's records
  // never precede its creator's), so comparing only the fronts by key
  // reconstructs exactly the order a single-queue run would have emitted.
  std::vector<std::size_t> pos(lanes_.size(), 0);
  for (;;) {
    int best = -1;
    for (std::size_t i = 0; i < lanes_.size(); ++i) {
      if (pos[i] >= lanes_[i].trace.size()) continue;
      if (best < 0 ||
          key_less(lanes_[i].trace[pos[i]],
                   lanes_[static_cast<std::size_t>(best)]
                       .trace[pos[static_cast<std::size_t>(best)]])) {
        best = static_cast<int>(i);
      }
    }
    if (best < 0) break;
    const std::size_t b = static_cast<std::size_t>(best);
    const TraceEntry& te = lanes_[b].trace[pos[b]++];
    recorder_->record(static_cast<obs::TracePoint>(te.tp), te.t, te.node,
                      te.edge, te.a, te.b, te.flags, te.aux);
  }
  for (Lane& ln : lanes_) ln.trace.clear();
}

void Simulator::barrier_flush(RealTime w_end, bool probe_fires,
                              bool obs_fires) {
  // 1. Cross-shard mailboxes: payloads move into the destination slab and
  // the stamped events join the destination queue (push order is
  // irrelevant — pop order is a pure function of the keys).
  for (Lane& src : lanes_) {
    for (std::size_t d = 0; d < lanes_.size(); ++d) {
      for (Lane::OutMsg& om : src.outbox[d]) {
        om.event.msg = lanes_[d].slab.put(om.payload, om.event.time);
        lanes_[d].queue.push(om.event);
        note_queued(lanes_[d], om.event.node, kInvalidNode, om.event.time);
      }
      src.outbox[d].clear();
    }
  }
  // 2. Cut-edge flips fold into the barrier-reconciled global view, in key
  // order so multiple flips of one edge within a window settle correctly.
  std::size_t n_flips = 0;
  for (const Lane& ln : lanes_) n_flips += ln.flips.size();
  if (n_flips > 0) {
    std::vector<Lane::LinkFlip> flips;
    flips.reserve(n_flips);
    for (Lane& ln : lanes_) {
      flips.insert(flips.end(), ln.flips.begin(), ln.flips.end());
      ln.flips.clear();
    }
    std::sort(flips.begin(), flips.end(),
              [](const Lane::LinkFlip& a, const Lane::LinkFlip& b) {
                return std::tie(a.time, a.source, a.seq) <
                       std::tie(b.time, b.source, b.seq);
              });
    for (const Lane::LinkFlip& f : flips) {
      link_up_[f.edge] = f.up ? 1 : 0;
    }
  }
  // 3. Flight-recorder records, merged in canonical order.
  if (obs::kTraceCompiled && recorder_ != nullptr) {
    merge_lane_traces();
  } else {
    for (Lane& ln : lanes_) ln.trace.clear();
  }
  // 4. Advance time, then fire the probe scheduled for this barrier.
  now_ = w_end;
  for (Lane& ln : lanes_) ln.now = w_end;
  if (probe_fires) {
    if (obs::kTraceCompiled && recorder_ != nullptr) {
      recorder_->record(obs::TracePoint::kProbe, w_end, kInvalidNode,
                        obs::kNoTraceEdge, 0.0, 0.0, 0,
                        static_cast<std::uint32_t>(canonical_pending()));
    }
    ++probe_events_;
    ++probe_canon_pops_;
    ++probe_canon_pushes_;
    probe_next_ += cfg_.probe_interval;
  }
  // 5. Canonical queue statistics.  Pushes/pops are exact at any barrier;
  // the *peak* is sampled only at observation barriers, whose times are
  // shard-count invariant — sampling at horizon-clipped barriers would
  // leak the partition into the stats.
  canon_stats_.pushes = probe_canon_pushes_;
  canon_stats_.pops = probe_canon_pops_;
  for (const Lane& ln : lanes_) {
    canon_stats_.pushes += ln.canon_pushes;
    canon_stats_.pops += ln.canon_pops;
  }
  if (obs_fires) {
    canon_stats_.peak_size =
        std::max(canon_stats_.peak_size, canonical_pending());
    // 6. Observers, only at observation barriers; plain barriers let the
    // touch marks accumulate until the next one.
    flush_observers(w_end);
  }
  if (progress_interval_ > 0.0) maybe_progress(false);
}

void Simulator::flush_observers(RealTime t) {
  // The touched-node union (ascending ids, one entry per node, wake flags
  // OR-ed) for window observers, read off the touch marks in node-id
  // order; plus the classic per-event observer once per observation
  // barrier.
  ++obs_barriers_;
  if (window_observer_) {
    std::size_t remaining = 0;
    for (Lane& ln : lanes_) {
      remaining += ln.touch_count;
      ln.touch_count = 0;
    }
    touched_.clear();
    for (NodeId v = 0; remaining > 0; ++v) {
      std::uint8_t& m = touch_marks_[slot(v)];
      if (m == 0) continue;
      touched_.push_back(WindowTouch{v, (m & kWokeMark) != 0});
      m = 0;
      --remaining;
    }
    window_observer_(*this, t, touched_);
  }
  if (observer_) observer_(*this, t);
}

// ---- event processing -------------------------------------------------------

bool Simulator::process(Lane& ln, Event& e) {
  // Flight-recorder hooks: with no recorder attached this is one pointer
  // test per event; the fast/slow-mode sampling below runs only when a
  // recorder is listening, so A^opt mode transitions cost nothing to
  // untraced runs.
  double mult_before = std::numeric_limits<double>::quiet_NaN();
  if (obs::kTraceCompiled && recorder_ != nullptr &&
      (e.kind == EventKind::kMessageDelivery || e.kind == EventKind::kTimer)) {
    if ((status_slots_[slot(e.node)] &
         (kAwakeBit | kCrashedBit | kDepartedBit)) == kAwakeBit) {
      mult_before =
          nodes_[static_cast<std::size_t>(e.node)]->rate_multiplier();
    }
  }
  bool observable = true;
  LastEvent& le = ln.last_event;
  le.kind = e.kind;
  le.node = kInvalidNode;
  le.node2 = kInvalidNode;
  le.woke = false;
  switch (e.kind) {
    case EventKind::kMessageDelivery: {
      // Copy out before dispatch: node callbacks may broadcast, which
      // grows the slab and would invalidate a held reference.
      const Message m = ln.slab.take(e.msg);
      const std::uint8_t st = status_slots_[slot(e.node)];
      if (!ln.link_up[e.edge] || (st & (kCrashedBit | kDepartedBit)) != 0) {
        ++ln.dropped;  // link down while in flight, or receiver dead/gone
        observable = false;
        break;
      }
      ++ln.delivered;
      le.node = e.node;
      if ((st & kAwakeBit) == 0) {
        le.woke = true;
        wake_node(ln, e.node, &m);
      } else {
        nodes_[static_cast<std::size_t>(e.node)]->on_message(
            ln.services->pin(e.node), m);
      }
      break;
    }
    case EventKind::kTimer: {
      // Synthesized from a wheel fire: the entry was live by construction
      // (cancel removes entries from the wheel), so no staleness check.
      TimerState& ts = timer(e.node, e.slot);
      ts.pending = TimerWheel::kNull;  // consumed by the fire
      if ((status_slots_[slot(e.node)] & (kCrashedBit | kDepartedBit)) != 0) {
        // A crashed or departed node's callbacks are suppressed; with no
        // callback there is no re-arm, so each armed slot costs one fire
        // per outage instead of wakeups forever.  Recovery/rejoin
        // re-anchors the armed slots (armed stays set).  Counted as a
        // cancel: an armed deadline that never ran its callback.
        ++ln.t_cancels;
        observable = false;
        break;
      }
      ts.armed = false;
      le.node = e.node;
      nodes_[static_cast<std::size_t>(e.node)]->on_timer(
          ln.services->pin(e.node), e.slot);
      break;
    }
    case EventKind::kRateChange: {
      le.node = e.node;
      apply_rate_change(ln, e.node, e.rate);
      if (e.rate_from_policy) schedule_next_rate_change(e.node, e.time);
      break;
    }
    case EventKind::kLinkChange: {
      le.node = e.node;
      le.node2 = e.node2;
      apply_link_change(ln, e);
      break;
    }
    case EventKind::kProbe: {
      // Serial engine only; the sharded coordinator fires probes at window
      // barriers without queueing them.
      Event probe;
      probe.time = e.time + cfg_.probe_interval;
      probe.kind = EventKind::kProbe;
      push_event(probe, kInvalidNode);
      break;
    }
    case EventKind::kCrash: {
      std::uint8_t& st = status_slots_[slot(e.node)];
      if ((st & kCrashedBit) != 0) {
        observable = false;  // double crash: no-op
        break;
      }
      st |= kCrashedBit;
      ++ln.crashes;
      le.node = e.node;  // leaves the awake set at this instant
      break;
    }
    case EventKind::kRecover: {
      std::uint8_t& st = status_slots_[slot(e.node)];
      if ((st & kCrashedBit) == 0) {
        observable = false;  // recovery without a crash: no-op
        break;
      }
      st &= static_cast<std::uint8_t>(~kCrashedBit);
      ++ln.recoveries;
      le.node = e.node;  // re-enters the awake set: fold its clock
      if ((st & (kAwakeBit | kDepartedBit)) == kAwakeBit) {
        // Re-anchor every armed timer (deadlines computed before the
        // outage are meaningless now), then run the re-join handshake.
        for (int sl = 0; sl < kMaxTimerSlots; ++sl) {
          TimerState& ts = timer(e.node, sl);
          if (!ts.armed) continue;
          if (ts.pending != TimerWheel::kNull) {
            lane_of(e.node).wheel.cancel(ts.pending);
            ts.pending = TimerWheel::kNull;
            ++ln.t_cancels;
          }
          schedule_timer_event(e.node, sl, ln.now);
        }
        nodes_[static_cast<std::size_t>(e.node)]->on_rejoin(
            ln.services->pin(e.node));
      }
      break;
    }
    case EventKind::kJoin: {
      std::uint8_t& st = status_slots_[slot(e.node)];
      if ((st & kDepartedBit) == 0) {
        observable = false;  // double join: no-op
        break;
      }
      st &= static_cast<std::uint8_t>(~kDepartedBit);
      ++ln.joins;
      le.node = e.node;  // (re-)enters the awake set at this instant
      if ((st & kAwakeBit) == 0) {
        // First appearance: initialize like a spontaneous wake.
        le.woke = true;
        wake_node(ln, e.node, nullptr);
      } else if ((st & kCrashedBit) == 0) {
        // Re-join after an absence: deadlines computed before departure
        // are meaningless now — re-anchor the armed slots, then run the
        // same handshake a crash recovery uses.
        for (int sl = 0; sl < kMaxTimerSlots; ++sl) {
          TimerState& ts = timer(e.node, sl);
          if (!ts.armed) continue;
          if (ts.pending != TimerWheel::kNull) {
            lane_of(e.node).wheel.cancel(ts.pending);
            ts.pending = TimerWheel::kNull;
            ++ln.t_cancels;
          }
          schedule_timer_event(e.node, sl, ln.now);
        }
        nodes_[static_cast<std::size_t>(e.node)]->on_rejoin(
            ln.services->pin(e.node));
      }
      break;
    }
    case EventKind::kLeave: {
      std::uint8_t& st = status_slots_[slot(e.node)];
      if ((st & kDepartedBit) != 0) {
        observable = false;  // double leave: no-op
        break;
      }
      st |= kDepartedBit;
      ++ln.leaves;
      le.node = e.node;  // leaves the awake set at this instant
      break;
    }
    case EventKind::kScramble: {
      const std::uint8_t st = status_slots_[slot(e.node)];
      if ((st & (kAwakeBit | kCrashedBit | kDepartedBit)) != kAwakeBit) {
        observable = false;  // no live state to corrupt
        break;
      }
      ++ln.scrambles;
      le.node = e.node;  // its clock moves discontinuously: fold it
      const ScramblePayload& sp =
          scramble_payloads_[static_cast<std::size_t>(e.generation)];
      nodes_[static_cast<std::size_t>(e.node)]->on_scramble(
          ln.services->pin(e.node), sp.seed, sp.magnitude);
      break;
    }
  }
  if (obs::kTraceCompiled && recorder_ != nullptr) {
    trace_event(ln, e, observable, mult_before);
  }
  return observable;
}

void Simulator::emit(Lane& ln, obs::TracePoint tp, RealTime t, NodeId node,
                     std::uint32_t edge, double a, double b,
                     std::uint16_t flags, std::uint32_t aux) {
  if (!windowed_ || !in_window_) {
    // Serial engine, or coordinator context (setup wakes): straight to the
    // recorder — the call order is already canonical.
    recorder_->record(tp, t, node, edge, a, b, flags, aux);
    return;
  }
  TraceEntry te;
  te.key_time = ln.cur_time;
  te.key_seq = ln.cur_seq;
  te.key_source = ln.cur_source;
  te.key_sub = ln.cur_sub++;
  te.tp = static_cast<std::uint16_t>(tp);
  te.flags = flags;
  te.t = t;
  te.a = a;
  te.b = b;
  te.node = node;
  te.edge = edge;
  te.aux = aux;
  ln.trace.push_back(te);
}

void Simulator::trace_event(Lane& ln, const Event& e, bool observable,
                            double mult_before) {
  using obs::TracePoint;
  const auto qsize = static_cast<std::uint32_t>(
      ln.queue.size() < 0xffffffffu ? ln.queue.size() : 0xffffffffu);
  TracePoint tp = TracePoint::kProbe;
  std::uint16_t flags = 0;
  double a = 0.0;
  double b = 0.0;
  switch (e.kind) {
    case EventKind::kMessageDelivery:
      tp = observable ? TracePoint::kDeliver : TracePoint::kDrop;
      break;
    case EventKind::kTimer:
      tp = observable ? TracePoint::kTimerFire : TracePoint::kStaleTimer;
      break;
    case EventKind::kRateChange:
      tp = TracePoint::kRateChange;
      a = e.rate;
      b = clock(e.node).value_at(ln.now);
      break;
    case EventKind::kLinkChange:
      tp = TracePoint::kLinkChange;
      if (e.link_up) flags |= obs::kFlagLinkUp;
      break;
    case EventKind::kProbe:
      tp = TracePoint::kProbe;
      break;
    case EventKind::kCrash:
      tp = TracePoint::kFault;
      a = 0.0;  // fault::FaultKind::kCrash
      b = observable ? logical_at(e.node, ln.now) : 0.0;
      break;
    case EventKind::kRecover:
      tp = TracePoint::kFault;
      a = 1.0;  // fault::FaultKind::kRecover
      b = observable ? logical_at(e.node, ln.now) : 0.0;
      break;
    case EventKind::kJoin:
      tp = TracePoint::kChurn;
      a = 0.0;  // join
      b = observable ? logical_at(e.node, ln.now) : 0.0;
      break;
    case EventKind::kLeave:
      tp = TracePoint::kChurn;
      a = 1.0;  // leave
      b = observable ? logical_at(e.node, ln.now) : 0.0;
      break;
    case EventKind::kScramble:
      tp = TracePoint::kFault;
      a = 10.0;  // fault::FaultKind::kScramble
      b = observable ? logical_at(e.node, ln.now) : 0.0;
      break;
  }
  if ((tp == TracePoint::kDeliver || tp == TracePoint::kTimerFire) &&
      e.node != kInvalidNode) {
    a = logical_at(e.node, ln.now);
    b = clock_slots_[slot(e.node)].value_at(ln.now);
    const double mult =
        nodes_[static_cast<std::size_t>(e.node)]->rate_multiplier();
    if (mult > 1.0) flags |= obs::kFlagFastMode;
    if (ln.last_event.woke) flags |= obs::kFlagWoke;
    if (!std::isnan(mult_before) && mult != mult_before) {
      flags |= obs::kFlagModeChange;
      emit(ln, TracePoint::kModeChange, ln.now, e.node, e.edge, mult_before,
           mult, flags, qsize);
    }
  }
  emit(ln, tp, ln.now, e.node, e.edge, a, b, flags, qsize);
}

void Simulator::schedule_rate_change(NodeId v, RealTime at, double rate) {
  assert(at >= now_ - kTimeTolerance);
  Event e;
  e.time = std::max(at, now_);
  e.kind = EventKind::kRateChange;
  e.node = v;
  e.rate = rate;
  e.rate_from_policy = false;
  push_event(e, v);
}

void Simulator::schedule_scramble(NodeId v, RealTime at, std::uint64_t seed,
                                  double magnitude) {
  assert(at >= now_ - kTimeTolerance);
  Event e;
  e.time = std::max(at, now_);
  e.kind = EventKind::kScramble;
  e.node = v;
  e.generation = scramble_payloads_.size();
  scramble_payloads_.push_back(ScramblePayload{seed, magnitude});
  push_event(e, v);
}

void Simulator::wake_node(Lane& ln, NodeId v, const Message* trigger) {
  const std::size_t sl = slot(v);
  assert((status_slots_[sl] & kAwakeBit) == 0);
  status_slots_[sl] |= kAwakeBit;
  clock_slots_[sl].start(ln.now);
  nodes_[static_cast<std::size_t>(v)]->on_wake(ln.services->pin(v), trigger);
  if (obs::kTraceCompiled && recorder_ != nullptr) {
    emit(ln, obs::TracePoint::kWake, ln.now, v, obs::kNoTraceEdge,
         logical_at(v, ln.now), clock_slots_[sl].value_at(ln.now),
         obs::kFlagWoke, 0);
  }
}

std::uint32_t Simulator::edge_index(NodeId u, NodeId v) const {
  assert(csr_->version() == graph_.version() &&
         "Graph mutated after the CSR snapshot; call grow_topology() "
         "before scheduling against new edges");
  const std::uint32_t e = csr_->find_edge(u, v);
  assert(e != graph::kNoEdge && "no such edge");
  return e;
}

bool Simulator::link_up(NodeId u, NodeId v) const {
  return link_up(static_cast<std::size_t>(edge_index(u, v)));
}

void Simulator::schedule_link_change(NodeId u, NodeId v, bool up, RealTime at) {
  assert(at >= now_ - kTimeTolerance);
  Event e;
  e.time = std::max(at, now_);
  e.kind = EventKind::kLinkChange;
  e.node = u;
  e.node2 = v;
  e.edge = edge_index(u, v);  // resolved once, here
  e.link_up = up;
  push_link_change(e, u);
}

void Simulator::schedule_crash(NodeId v, RealTime at) {
  assert(at >= now_ - kTimeTolerance);
  // The crash marker goes first (per-source seq order among same-time
  // events): the node is dead before its links report down, so only the
  // surviving endpoints get on_link_change callbacks.  Per-link events are
  // kept (rather than one bulk cut) so incremental observers fold each
  // neighbor's reaction.
  Event c;
  c.time = std::max(at, now_);
  c.kind = EventKind::kCrash;
  c.node = v;
  push_event(c, v);
  for (const graph::Graph::Arc* a = csr_->begin(v); a != csr_->end(v); ++a) {
    Event e;
    e.time = c.time;
    e.kind = EventKind::kLinkChange;
    e.node = v;
    e.node2 = a->to;
    e.edge = a->edge;
    e.link_up = false;
    push_link_change(e, v);
  }
}

void Simulator::schedule_recovery(NodeId v, RealTime at) {
  assert(at >= now_ - kTimeTolerance);
  // Links come back first so the on_rejoin() re-announcement broadcast by
  // the kRecover event (same instant, seq order) reaches the neighbors.
  for (const graph::Graph::Arc* a = csr_->begin(v); a != csr_->end(v); ++a) {
    Event e;
    e.time = std::max(at, now_);
    e.kind = EventKind::kLinkChange;
    e.node = v;
    e.node2 = a->to;
    e.edge = a->edge;
    e.link_up = true;
    push_link_change(e, v);
  }
  Event r;
  r.time = std::max(at, now_);
  r.kind = EventKind::kRecover;
  r.node = v;
  push_event(r, v);
}

// ---- churn -------------------------------------------------------------------

void Simulator::set_initially_absent(NodeId v) {
  if (setup_done_) {
    throw std::logic_error(
        "Simulator::set_initially_absent must precede the first run");
  }
  status_slots_[slot(v)] |= kDepartedBit;
}

void Simulator::set_link_initially_down(NodeId u, NodeId v) {
  if (setup_done_) {
    throw std::logic_error(
        "Simulator::set_link_initially_down must precede the first run");
  }
  const std::uint32_t e = edge_index(u, v);
  for (Lane& ln : lanes_) ln.link_up[e] = 0;
  if (windowed_) link_up_[e] = 0;
}

void Simulator::schedule_node_join(NodeId v, RealTime at) {
  assert(at >= now_ - kTimeTolerance);
  Event e;
  e.time = std::max(at, now_);
  e.kind = EventKind::kJoin;
  e.node = v;
  push_event(e, v);
}

void Simulator::schedule_node_leave(NodeId v, RealTime at) {
  assert(at >= now_ - kTimeTolerance);
  Event e;
  e.time = std::max(at, now_);
  e.kind = EventKind::kLeave;
  e.node = v;
  push_event(e, v);
}

void Simulator::grow_topology(bool new_edges_up) {
  if (windowed_) {
    throw std::logic_error(
        "Simulator::grow_topology: the sharded engine pre-declares its edge "
        "universe (cut tables and lookahead bounds are fixed at "
        "configure_shards); add the churnable edges to the Graph before "
        "constructing the Simulator, or rebalance with repartition()");
  }
  csr_ = graph_.csr();
  if (static_cast<std::size_t>(csr_->num_nodes()) != slot_of_.size()) {
    throw std::logic_error(
        "Simulator::grow_topology: the node universe is fixed at "
        "construction (churn uses presence, not resizing)");
  }
  lanes_[0].link_up.resize(graph_.num_edges(), new_edges_up ? 1 : 0);
}

void Simulator::repartition(const std::string& strategy) {
  if (!windowed_) {
    throw std::logic_error(
        "Simulator::repartition requires the sharded engine");
  }
  if (in_window_ || !setup_done_) {
    throw std::logic_error(
        "Simulator::repartition must run between run_until calls");
  }
  const auto n = static_cast<std::size_t>(graph_.num_nodes());
  const auto k = static_cast<int>(lanes_.size());
  // 1. New assignment, guided by the *live* subgraph (links currently up —
  // under churn the dead weight of absent nodes and removed edges is
  // exactly what the old partition is mis-balanced around).  The installed
  // Partition must cover the full edge universe: its cut tables drive the
  // conservative horizons for every schedulable event, not just the live
  // ones.
  graph::Graph live(static_cast<graph::NodeId>(n));
  const auto& universe = graph_.edges();
  for (std::uint32_t e = 0; e < universe.size(); ++e) {
    if (link_up_[e]) live.add_edge(universe[e].first, universe[e].second);
  }
  const std::string strat = strategy.empty() ? partition_strategy_ : strategy;
  const graph::Graph& guide = live.num_edges() > 0 ? live : graph_;
  graph::Partition next = graph::Partition::from_assignment(
      graph_, graph::Partition::make(guide, k, strat).shard_assignment(), k);
  // 2. Drain every lane into partition-independent snapshots.  Twins are
  // dropped (recreated below from their primaries against the new cut);
  // message payloads ride along so they can enter the destination slab.
  // Timer identity is read off the wheel — the exact (deadline, seq) pair
  // must survive, since recomputing either would change the canonical
  // order.
  std::vector<Event> events;
  std::vector<std::pair<Event, Message>> deliveries;
  std::uint64_t old_arms = 0;
  std::uint64_t old_fires = 0;
  for (Lane& ln : lanes_) {
    for (const auto& box : ln.outbox) {
      (void)box;
      assert(box.empty() && "outboxes drain at every barrier");
    }
    assert(ln.flips.empty() && ln.trace.empty());
    old_arms += ln.wheel.stats().arms;
    old_fires += ln.wheel.stats().fires;
    while (!ln.queue.empty()) {
      Event e = ln.queue.pop();
      if (e.twin) continue;
      if (e.kind == EventKind::kMessageDelivery) {
        deliveries.emplace_back(e, ln.slab.take(e.msg));
      } else {
        events.push_back(e);
      }
    }
  }
  struct LiveTimer {
    NodeId node;
    int slot;
    RealTime time;
    std::uint64_t seq;
  };
  std::vector<LiveTimer> timers;
  for (NodeId v = 0; v < graph_.num_nodes(); ++v) {
    for (int sl = 0; sl < kMaxTimerSlots; ++sl) {
      TimerState& ts = timer(v, sl);
      if (ts.pending == TimerWheel::kNull) continue;
      const TimerWheel::Fired fi = lane_of(v).wheel.entry_info(ts.pending);
      timers.push_back(LiveTimer{v, sl, fi.time, fi.seq});
      ts.pending = TimerWheel::kNull;  // re-armed on the new wheel below
    }
  }
  // 3. Snapshot the slot-indexed hot state by node id, and the per-lane
  // counters by lane index (only the sums are canonical; the per-lane
  // split is partition-dependent bookkeeping).
  std::vector<HardwareClock> clock_by_node(n);
  std::vector<std::uint8_t> status_by_node(n);
  std::vector<TimerState> tstate_by_node(
      n * static_cast<std::size_t>(kMaxTimerSlots));
  for (std::size_t v = 0; v < n; ++v) {
    const std::size_t sl = slot(static_cast<NodeId>(v));
    clock_by_node[v] = clock_slots_[sl];
    status_by_node[v] = status_slots_[sl];
    for (int s = 0; s < kMaxTimerSlots; ++s) {
      tstate_by_node[v * static_cast<std::size_t>(kMaxTimerSlots) +
                     static_cast<std::size_t>(s)] =
          timer_slots_[sl * static_cast<std::size_t>(kMaxTimerSlots) +
                       static_cast<std::size_t>(s)];
    }
  }
  std::vector<Lane> old_counters = std::vector<Lane>();  // counters only
  old_counters.reserve(lanes_.size());
  for (Lane& ln : lanes_) {
    Lane c;
    c.broadcasts = ln.broadcasts;
    c.delivered = ln.delivered;
    c.dropped = ln.dropped;
    c.events = ln.events;
    c.t_cancels = ln.t_cancels;
    c.crashes = ln.crashes;
    c.recoveries = ln.recoveries;
    c.joins = ln.joins;
    c.leaves = ln.leaves;
    c.canon_pushes = ln.canon_pushes;
    c.canon_pops = ln.canon_pops;
    old_counters.push_back(std::move(c));
  }
  // 4. Install the partition: new slot permutation, scattered hot state,
  // fresh cut distances, fresh lanes with their link views restored from
  // the barrier-reconciled global state.
  part_ = std::make_unique<graph::Partition>(std::move(next));
  if (!strategy.empty()) partition_strategy_ = strategy;
  std::uint32_t next_slot = 0;
  for (int s = 0; s < part_->num_shards(); ++s) {
    for (const NodeId v : part_->members(s)) {
      slot_of_[static_cast<std::size_t>(v)] = next_slot++;
    }
  }
  for (std::size_t v = 0; v < n; ++v) {
    const std::size_t sl = slot(static_cast<NodeId>(v));
    clock_slots_[sl] = clock_by_node[v];
    status_slots_[sl] = status_by_node[v];
    for (int s = 0; s < kMaxTimerSlots; ++s) {
      timer_slots_[sl * static_cast<std::size_t>(kMaxTimerSlots) +
                   static_cast<std::size_t>(s)] =
          tstate_by_node[v * static_cast<std::size_t>(kMaxTimerSlots) +
                         static_cast<std::size_t>(s)];
    }
  }
  compute_cut_dist();
  init_lanes(static_cast<std::size_t>(k));
  for (std::size_t i = 0; i < lanes_.size(); ++i) {
    Lane& ln = lanes_[i];
    ln.now = now_;
    ln.link_up.assign(link_up_.begin(), link_up_.end());
    ln.broadcasts = old_counters[i].broadcasts;
    ln.delivered = old_counters[i].delivered;
    ln.dropped = old_counters[i].dropped;
    ln.events = old_counters[i].events;
    ln.t_cancels = old_counters[i].t_cancels;
    ln.crashes = old_counters[i].crashes;
    ln.recoveries = old_counters[i].recoveries;
    ln.joins = old_counters[i].joins;
    ln.leaves = old_counters[i].leaves;
    ln.canon_pushes = old_counters[i].canon_pushes;
    ln.canon_pops = old_counters[i].canon_pops;
    const std::size_t members =
        part_->members(static_cast<int>(i)).size();
    ln.queue.reserve(members * 2);
    ln.slab.reserve(members);
    ln.wheel.configure(members);
    ln.wheel.reserve(members * 2);
  }
  compute_lane_lookahead();
  // 5. Re-file everything WITHOUT re-stamping: keys are immutable.  Twins
  // are recreated for link changes that are cut edges under the new
  // partition; canonical push counters are untouched (each logical event
  // was counted at creation).
  for (const Event& e : events) {
    Lane& dest = lane_of(e.node);
    dest.queue.push(e);
    if (e.kind == EventKind::kLinkChange) {
      note_queued(dest, e.node, e.node2, e.time);
      Lane& other = lane_of(e.node2);
      if (&other != &dest) {
        Event tw = e;
        tw.twin = true;
        other.queue.push(tw);
        ++other.twins_in_queue;
        note_queued(other, e.node, e.node2, e.time);
      }
    } else {
      note_queued(dest, e.node, kInvalidNode, e.time);
    }
  }
  for (auto& [e, m] : deliveries) {
    Lane& dest = lane_of(e.node);
    Event ev = e;
    ev.msg = dest.slab.put(m, ev.time);
    dest.queue.push(ev);
    note_queued(dest, ev.node, kInvalidNode, ev.time);
  }
  for (const LiveTimer& lt : timers) {
    Lane& dest = lane_of(lt.node);
    timer(lt.node, lt.slot).pending = dest.wheel.arm(
        lt.time, lt.seq, lt.node, static_cast<std::uint8_t>(lt.slot));
    note_queued(dest, lt.node, kInvalidNode, lt.time);
  }
  // 6. Wheel-stat carry: the fresh wheels count one arm per live re-arm
  // and zero fires; the canonical totals must read as if nothing happened.
  std::uint64_t new_arms = 0;
  for (const Lane& ln : lanes_) new_arms += ln.wheel.stats().arms;
  assert(old_arms >= new_arms);
  carry_arms_ += old_arms - new_arms;
  carry_fires_ += old_fires;
  ++repartitions_;
}

void Simulator::apply_link_change(Lane& ln, const Event& e) {
  if ((ln.link_up[e.edge] != 0) == e.link_up) return;  // no-op flip
  ln.link_up[e.edge] = e.link_up ? 1 : 0;
  if (windowed_ && !e.twin) {
    // Primary copy records the flip for the barrier's global reconcile.
    ln.flips.push_back(
        Lane::LinkFlip{e.time, e.seq, e.source, e.edge, e.link_up});
  }
  for (const NodeId endpoint : {e.node, e.node2}) {
    if (windowed_ && part_->shard_of(endpoint) != ln.index) {
      continue;  // the other lane's copy runs this endpoint's callback
    }
    if ((status_slots_[slot(endpoint)] &
         (kAwakeBit | kCrashedBit | kDepartedBit)) != kAwakeBit) {
      continue;  // dead or departed nodes get no callbacks
    }
    nodes_[static_cast<std::size_t>(endpoint)]->on_link_change(
        ln.services->pin(endpoint), endpoint == e.node ? e.node2 : e.node,
        e.link_up);
  }
}

void Simulator::do_broadcast(Lane& ln, NodeId v, const Message& m) {
  ++ln.broadcasts;
  if (obs::kTraceCompiled && recorder_ != nullptr) {
    emit(ln, obs::TracePoint::kBroadcast, ln.now, v, obs::kNoTraceEdge,
         m.logical, m.logical_max, 0,
         static_cast<std::uint32_t>(ln.queue.size()));
  }
  for (const graph::Graph::Arc* a = csr_->begin(v); a != csr_->end(v); ++a) {
    if (!ln.link_up[a->edge]) continue;  // link currently down
    if (!delay_plans_) {
      const RealTime t_recv = delay_->delivery_time(v, a->to, ln.now, *this);
      assert(t_recv >= ln.now - kTimeTolerance && "negative message delay");
      Event e;
      e.time = std::max(t_recv, ln.now);
      e.kind = EventKind::kMessageDelivery;
      e.node = a->to;
      e.edge = a->edge;
      push_delivery(ln, e, v, m);
      continue;
    }
    // Faulty-channel path: the policy plans zero (drop), one, or several
    // (duplication) copies, each possibly perturbed (corruption).
    ln.plan_scratch.clear();
    delay_->plan_deliveries(v, a->to, ln.now, *this, ln.plan_scratch);
    if (ln.plan_scratch.empty()) {
      ++ln.dropped;  // the channel ate it
      continue;
    }
    for (const PlannedDelivery& pd : ln.plan_scratch) {
      assert(pd.at >= ln.now - kTimeTolerance && "negative message delay");
      Message copy = m;
      copy.logical += pd.logical_delta;
      copy.logical_max += pd.logical_max_delta;
      Event e;
      e.time = std::max(pd.at, ln.now);
      e.kind = EventKind::kMessageDelivery;
      e.node = a->to;
      e.edge = a->edge;
      push_delivery(ln, e, v, copy);
    }
  }
}

void Simulator::arm_timer(Lane& ln, NodeId v, int slot, ClockValue target) {
  assert(slot >= 0 && slot < kMaxTimerSlots);
  TimerState& ts = timer(v, slot);
  if (ts.pending != TimerWheel::kNull) {
    // Re-arm of a pending slot: the old deadline is removed in O(1) (the
    // pre-wheel engine left it in the heap to pop as stale).
    lane_of(v).wheel.cancel(ts.pending);
    ts.pending = TimerWheel::kNull;
    ++ln.t_cancels;
  }
  ts.target = target;
  ts.armed = true;
  schedule_timer_event(v, slot, ln.now);
}

void Simulator::disarm_timer(Lane& ln, NodeId v, int slot) {
  assert(slot >= 0 && slot < kMaxTimerSlots);
  TimerState& ts = timer(v, slot);
  ts.armed = false;
  if (ts.pending != TimerWheel::kNull) {
    lane_of(v).wheel.cancel(ts.pending);
    ts.pending = TimerWheel::kNull;
    ++ln.t_cancels;
  }
}

void Simulator::schedule_timer_event(NodeId v, int slot, RealTime now) {
  const HardwareClock& hc = clock_slots_[this->slot(v)];
  TimerState& ts = timer(v, slot);
  assert(ts.armed);
  assert(ts.pending == TimerWheel::kNull);
  assert(hc.started() && "timers require a started clock");
  const RealTime deadline = hc.time_when_reaches(ts.target, now);
  // The arm consumes v's next sequence number exactly where the pre-wheel
  // engine stamped its timer-event push, so every event key in the run is
  // identical to the heap engine's.
  const std::uint64_t seq = next_seq_[seq_index(v)]++;
  Lane& dest = lane_of(v);
  ts.pending =
      dest.wheel.arm(deadline, seq, v, static_cast<std::uint8_t>(slot));
  if (windowed_) note_queued(dest, v, kInvalidNode, deadline);
}

void Simulator::apply_rate_change(Lane& ln, NodeId v, double rate) {
  const std::size_t sl = slot(v);
  clock_slots_[sl].set_rate(ln.now, rate);
  // Crashed/departed nodes keep drifting but reschedule nothing: their
  // timer fires are suppressed anyway, and recovery/rejoin re-anchors the
  // armed slots.
  if ((status_slots_[sl] & (kAwakeBit | kCrashedBit | kDepartedBit)) !=
      kAwakeBit) {
    return;
  }
  // Re-anchor all armed hardware-time timers onto the new rate.
  for (int slot = 0; slot < kMaxTimerSlots; ++slot) {
    TimerState& ts = timer(v, slot);
    if (!ts.armed) continue;
    if (ts.pending != TimerWheel::kNull) {
      lane_of(v).wheel.cancel(ts.pending);
      ts.pending = TimerWheel::kNull;
      ++ln.t_cancels;
    }
    schedule_timer_event(v, slot, ln.now);
  }
}

void Simulator::schedule_next_rate_change(NodeId v, RealTime now) {
  if (auto step = drift_->next_change(v, now)) {
    assert(step->at >= now - kTimeTolerance);
    Event e;
    e.time = std::max(step->at, now);
    e.kind = EventKind::kRateChange;
    e.node = v;
    e.rate = step->rate;
    push_event(e, v);
  }
}

void Simulator::maybe_progress(bool force) {
  const auto nw = std::chrono::steady_clock::now();
  if (!progress_init_) {
    progress_init_ = true;
    progress_start_ = nw;
    progress_last_ = nw;
    progress_last_events_ = events_processed();
    return;
  }
  const double since =
      std::chrono::duration<double>(nw - progress_last_).count();
  if (!force && since < progress_interval_) return;
  const std::uint64_t ev = events_processed();
  const double rate =
      since > 0.0 ? static_cast<double>(ev - progress_last_events_) / since
                  : 0.0;
  std::size_t depth = 0;
  for (const Lane& ln : lanes_) depth += ln.queue.size() + ln.wheel.live();
  const double wall =
      std::chrono::duration<double>(nw - progress_start_).count();
  std::fprintf(stderr,
               "[tbcs] wall=%.1fs sim_t=%.3f events=%llu (%.3g ev/s) "
               "queue=%zu",
               wall, now_, static_cast<unsigned long long>(ev), rate, depth);
  if (windowed_) {
    std::fprintf(stderr, " shards=%zu horizon=%.6f", lanes_.size(), win_end_);
  }
  std::fprintf(stderr, "\n");
  progress_last_ = nw;
  progress_last_events_ = ev;
}

}  // namespace tbcs::sim
