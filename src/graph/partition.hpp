// Node partitioning for the sharded simulator engine.
//
// A Partition splits V into `num_shards` disjoint, covering member sets
// and precomputes the cut-edge table (edges whose endpoints live in
// different shards).  The sharded engine keys its per-lane event routing
// off shard_of(); the fault layer and the analysis layer use the same
// assignment so every consumer agrees on which lane owns a node.
//
// Two strategies are provided:
//   - block:      contiguous id ranges [i*n/k, (i+1)*n/k).  Optimal for
//                 the generated topologies (line/ring/torus/trees), whose
//                 id order is already locality-preserving — cut edges are
//                 O(k) on a line.
//   - multilevel: coarsen by repeated heavy-edge matching, split the
//                 coarsest graph into weighted BFS-ordered blocks, then
//                 project back up with Kernighan–Lin boundary refinement
//                 at every level.  Cut-minimizing on graphs whose id
//                 order carries no locality (ER, shuffled meshes), where
//                 block cuts a constant fraction of all edges.
//
// All are pure functions of (graph, num_shards) — no RNG, id-ordered
// tie-breaking throughout — so a partition is reproducible from the CLI
// flags alone.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/graph.hpp"

namespace tbcs::graph {

class Partition {
 public:
  /// One undirected edge with endpoints in two different shards.
  struct CutEdge {
    std::uint32_t edge = kNoEdge;  // index into Graph::edges()
    NodeId u = -1;                 // endpoint in shard su
    NodeId v = -1;                 // endpoint in shard sv
    int su = -1;
    int sv = -1;
  };

  struct BalanceStats {
    std::size_t min_members = 0;
    std::size_t max_members = 0;
    double imbalance = 0.0;  // max_members / (n / k) - 1, 0 = perfect
    std::size_t cut_edges = 0;
    double cut_fraction = 0.0;  // cut_edges / |E|
  };

  /// Contiguous-block partition: shard i owns ids [i*n/k, (i+1)*n/k).
  static Partition block(const Graph& g, int num_shards);

  /// Multilevel cut-minimizing partition: heavy-edge-matching coarsening,
  /// weighted BFS-block initial split of the coarsest graph, KL boundary
  /// refinement on the way back up.  Deterministic (id-ordered visiting
  /// and tie-breaking, no RNG).  Shards are guaranteed non-empty with
  /// weight at most ~1.1x the ideal n/k.
  static Partition multilevel(const Graph& g, int num_shards);

  /// Dispatch by strategy name ("auto" | "block" | "ml"); throws
  /// std::invalid_argument on an unknown name or num_shards < 1 or
  /// num_shards > n.
  static Partition make(const Graph& g, int num_shards,
                        const std::string& strategy);

  /// Whether `strategy` names a strategy: auto | block | ml (or its long
  /// form, multilevel).
  static bool known_strategy(const std::string& strategy);

  /// The strategy make() runs for `strategy` on `g`: "auto" (or empty)
  /// becomes "ml" on trees and "block" elsewhere, any other known name
  /// comes back unchanged.  Throws std::invalid_argument on an unknown
  /// name.
  static std::string resolve_strategy(const Graph& g,
                                      const std::string& strategy);

  /// Builds a partition of `g` from an explicit node -> shard assignment
  /// (cut tables computed against g's full edge set).  Used by the sharded
  /// engine's repartition: the assignment is computed on the *live*
  /// subgraph, but horizon safety needs cut accounting over every
  /// schedulable edge.  Throws std::invalid_argument when the assignment
  /// has the wrong size, an out-of-range shard, or an empty shard.
  static Partition from_assignment(const Graph& g, std::vector<int> shard_of,
                                   int num_shards);

  int num_shards() const { return num_shards_; }
  NodeId num_nodes() const { return static_cast<NodeId>(shard_of_.size()); }

  int shard_of(NodeId v) const {
    return shard_of_[static_cast<std::size_t>(v)];
  }
  const std::vector<int>& shard_assignment() const { return shard_of_; }

  /// Members of shard s, ascending by node id.
  const std::vector<NodeId>& members(int s) const {
    return members_[static_cast<std::size_t>(s)];
  }

  /// All cut edges, ascending by edge index.
  const std::vector<CutEdge>& cut_edges() const { return cut_edges_; }

  /// True when edge e (index into Graph::edges()) crosses shards.  O(1).
  bool edge_is_cut(std::uint32_t e) const {
    return edge_is_cut_[static_cast<std::size_t>(e)];
  }

  BalanceStats balance() const;

  /// Sanity-checks coverage, disjointness, member ordering, and cut-edge
  /// accounting against the graph; throws std::logic_error on violation.
  /// Called by the tests; cheap enough to call from the CLI too.
  void validate(const Graph& g) const;

 private:
  Partition() = default;
  void finish(const Graph& g);  // fills members_/cut tables from shard_of_

  int num_shards_ = 0;
  std::size_t num_edges_ = 0;
  std::vector<int> shard_of_;              // node -> shard
  std::vector<std::vector<NodeId>> members_;
  std::vector<CutEdge> cut_edges_;
  std::vector<bool> edge_is_cut_;          // edge index -> crosses shards
};

}  // namespace tbcs::graph
