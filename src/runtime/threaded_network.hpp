// The threaded runtime: real threads, real time, injected drift and
// delays.  Demonstrates that the algorithm objects written for the
// simulator run unmodified on a live system.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "graph/graph.hpp"
#include "runtime/threaded_node.hpp"
#include "sim/rng.hpp"

namespace tbcs::runtime {

/// Per-message channel interception (fault injection): called on the
/// sender's thread for each (from, to) copy about to be routed.  May
/// mutate the payload and delay, request a duplicate delivery, or return
/// false to drop the copy.  Installed before start(); the callable itself
/// must be thread-safe (node threads invoke it concurrently).
using ChannelHook = std::function<bool(sim::NodeId from, sim::NodeId to,
                                       sim::Message& m, double& delay_units,
                                       bool& duplicate)>;

class ThreadedNetwork {
 public:
  struct Config {
    /// Messages are delayed uniformly in [delay_min, delay_max] units
    /// (1 unit = 1 ms at clock rate 1).
    double delay_min = 0.0;
    double delay_max = 1.0;
    std::uint64_t seed = 1;
    /// stop() gives all threads this long (wall clock) to exit before
    /// declaring the stragglers wedged and detaching them.
    double stop_timeout_ms = 5000.0;
  };

  ThreadedNetwork(const graph::Graph& g, Config cfg);
  ~ThreadedNetwork();

  ThreadedNetwork(const ThreadedNetwork&) = delete;
  ThreadedNetwork& operator=(const ThreadedNetwork&) = delete;

  /// Installs the algorithm for node v with the given hardware clock rate
  /// (1 +/- drift).  Must be called for every node before start().
  void add_node(sim::NodeId v, std::unique_ptr<sim::Node> algorithm,
                double clock_rate);

  /// Starts all node threads; `root` wakes spontaneously, the others wait
  /// for the initialization flood.
  void start(sim::NodeId root);

  /// Requests shutdown and joins all threads, each within a shared
  /// Config::stop_timeout_ms deadline.  A thread that misses it (wedged
  /// inside a callback) is detached and its host leaked — freeing memory
  /// a live thread still references would be worse — and counted in the
  /// return value.
  std::size_t stop();

  /// Routes a broadcast from `from` to all its neighbors with injected
  /// delays (called by node hosts).
  void route_broadcast(sim::NodeId from, const sim::Message& m);

  // ---- fault injection ------------------------------------------------------

  /// Cuts (or restores) every link of v: a partitioned node neither sends
  /// nor receives, but its thread and clock keep running — the threaded
  /// analogue of the simulator's crash/recover pair.
  void set_partitioned(sim::NodeId v, bool partitioned);
  bool partitioned(sim::NodeId v) const;

  /// Takes one undirected link down / up.
  void set_link_state(sim::NodeId u, sim::NodeId v, bool up);

  /// Runs the algorithm's on_rejoin() on v's own thread (call after
  /// clearing a partition so the node re-announces itself).
  void request_rejoin(sim::NodeId v);

  /// Installs the channel fault hook.  Must be called before start().
  void set_channel_hook(ChannelHook hook);

  /// Node v's algorithm object (for toggling fault decorators).
  sim::Node& algorithm_mutable(sim::NodeId v);

  /// Copies dropped by partitions, downed links, or the channel hook.
  std::uint64_t messages_dropped() const {
    return messages_dropped_.load(std::memory_order_relaxed);
  }

  // ---- sampling ----------------------------------------------------------------
  sim::NodeId num_nodes() const { return graph_.num_nodes(); }
  double logical(sim::NodeId v) const;
  double hardware(sim::NodeId v) const;
  bool awake(sim::NodeId v) const;

  /// Max pairwise logical skew across awake nodes right now.
  double sample_global_skew() const;
  /// Max per-edge logical skew right now.
  double sample_local_skew() const;

 private:
  const graph::Graph& graph_;
  Config cfg_;
  std::shared_ptr<const graph::Graph::Csr> csr_;
  std::vector<std::unique_ptr<ThreadedNodeHost>> hosts_;
  std::mutex route_mu_;  // guards rng_
  sim::Rng rng_;
  bool started_ = false;
  // Fault state.  Raw atomic arrays because std::vector<std::atomic<...>>
  // does not compile (atomics are not movable).
  std::unique_ptr<std::atomic<bool>[]> partitioned_;
  std::unique_ptr<std::atomic<bool>[]> link_up_;  // indexed by edge id
  ChannelHook channel_hook_;
  std::atomic<std::uint64_t> messages_dropped_{0};
};

}  // namespace tbcs::runtime
