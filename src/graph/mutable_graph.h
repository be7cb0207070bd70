// The one mutable adjacency: per-node sorted neighbor lists with
// O(log d) membership and O(d) insert/remove, built from an immutable
// Graph and mutated in place by a single writer. Both incremental paths
// keep their topology here: the live service (live::Service, whose
// repair workers read it through par::relax) and the synchronous
// maintenance simulator (core::DynamicKCore).
//
// Thread contract: apply() and add_node() are single-writer. Readers
// (e.g. repair workers) may call neighbors() concurrently with EACH
// OTHER but never concurrently with a mutation — the live service's
// apply cycle is strictly "mutate topology, then run repair workers,
// then publish", and the writer's thread spawn/join gives the needed
// happens-before edges.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/edge_list.h"
#include "graph/graph.h"

namespace kcore::graph {

class MutableGraph {
 public:
  explicit MutableGraph(const Graph& initial);

  [[nodiscard]] NodeId num_nodes() const noexcept {
    return static_cast<NodeId>(adjacency_.size());
  }
  [[nodiscard]] std::uint64_t num_edges() const noexcept { return num_edges_; }
  [[nodiscard]] NodeId degree(NodeId u) const {
    return static_cast<NodeId>(adjacency_[u].size());
  }
  [[nodiscard]] std::span<const NodeId> neighbors(NodeId u) const {
    return adjacency_[u];
  }
  [[nodiscard]] bool has_edge(NodeId u, NodeId v) const;

  /// Apply one update; returns whether the topology changed (false for a
  /// duplicate insert, an absent remove, or a self-loop). Out-of-range
  /// node ids are the caller's job to reject (graph::coalesce counts
  /// them before they reach this point).
  bool apply(const EdgeUpdate& update);

  /// Append a fresh isolated node; returns its id.
  NodeId add_node();

  /// Count of topology changes (changing apply() calls and add_node())
  /// since construction; live::Service folds it into every published
  /// snapshot as its topology_version.
  [[nodiscard]] std::uint64_t version() const noexcept { return version_; }

  /// The current edges in canonical form: u < v, sorted by (u, v) — the
  /// one walk behind snapshot() and the live service's checkpoints.
  [[nodiscard]] std::vector<Edge> edges() const;

  /// Materialize the current topology as an immutable Graph (O(N+M));
  /// used to cross-check against from-scratch decompositions.
  [[nodiscard]] Graph snapshot() const;

 private:
  std::vector<std::vector<NodeId>> adjacency_;  // sorted per node
  std::uint64_t num_edges_ = 0;
  std::uint64_t version_ = 0;
};

}  // namespace kcore::graph
