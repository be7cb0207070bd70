// Immutable undirected graph in Compressed Sparse Row (CSR) form.
//
// This is the substrate every other module builds on. Graphs are simple
// (no self-loops, no parallel edges) and undirected; an undirected edge
// {u,v} is stored as the two directed arcs u->v and v->u, matching the
// paper's setup ("Undirected graphs have been transformed in directed
// graphs by considering both directions"). Adjacency lists are sorted,
// enabling O(log d) membership tests.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "util/check.h"

namespace kcore::graph {

/// Node identifier: dense indices in [0, num_nodes).
using NodeId = std::uint32_t;

/// Sentinel for "no node".
inline constexpr NodeId kInvalidNode = static_cast<NodeId>(-1);

/// An undirected edge; orientation of the pair carries no meaning.
struct Edge {
  NodeId u = 0;
  NodeId v = 0;

  friend bool operator==(const Edge&, const Edge&) = default;
};

class GraphBuilder;

/// Immutable CSR graph. Construct through GraphBuilder or from_edges().
class Graph {
 public:
  /// Empty graph (0 nodes, 0 edges).
  Graph() : offsets_(1, 0) {}

  /// Build from an edge list over nodes [0, num_nodes). Self-loops are
  /// dropped and duplicate edges collapsed; endpoints must be < num_nodes.
  [[nodiscard]] static Graph from_edges(NodeId num_nodes,
                                        std::span<const Edge> edges);

  [[nodiscard]] NodeId num_nodes() const noexcept {
    return static_cast<NodeId>(offsets_.size() - 1);
  }

  /// Number of undirected edges M.
  [[nodiscard]] std::uint64_t num_edges() const noexcept {
    return adjacency_.size() / 2;
  }

  /// Number of directed arcs (= 2M).
  [[nodiscard]] std::uint64_t num_arcs() const noexcept {
    return adjacency_.size();
  }

  /// Sorted neighbors of u.
  [[nodiscard]] std::span<const NodeId> neighbors(NodeId u) const {
    KCORE_DCHECK(u < num_nodes());
    return {adjacency_.data() + offsets_[u],
            adjacency_.data() + offsets_[u + 1]};
  }

  [[nodiscard]] NodeId degree(NodeId u) const {
    KCORE_DCHECK(u < num_nodes());
    return static_cast<NodeId>(offsets_[u + 1] - offsets_[u]);
  }

  /// O(log degree(u)) membership test.
  [[nodiscard]] bool has_edge(NodeId u, NodeId v) const;

  /// Smallest node degree (0 for the empty graph).
  [[nodiscard]] NodeId min_degree() const noexcept;

  /// Largest node degree (0 for the empty graph).
  [[nodiscard]] NodeId max_degree() const noexcept;

  /// 2M / N; 0 for the empty graph.
  [[nodiscard]] double average_degree() const noexcept;

  /// Structural equality (same node count and adjacency).
  friend bool operator==(const Graph&, const Graph&) = default;

 private:
  friend class GraphBuilder;

  std::vector<std::uint64_t> offsets_;  // size num_nodes + 1
  std::vector<NodeId> adjacency_;       // size 2M, sorted per node
};

/// Incremental edge-list accumulator producing a Graph.
///
/// The builder tolerates duplicate edges and self-loops in its input
/// (generators and file loaders both produce them naturally); build()
/// canonicalizes. Node count grows on demand via ensure_node().
class GraphBuilder {
 public:
  explicit GraphBuilder(NodeId num_nodes = 0) : num_nodes_(num_nodes) {}

  /// Make sure node ids [0, n] exist.
  void ensure_node(NodeId n) {
    if (n >= num_nodes_) num_nodes_ = n + 1;
  }

  /// Record an undirected edge; endpoints are created as needed.
  void add_edge(NodeId u, NodeId v) {
    ensure_node(u);
    ensure_node(v);
    edges_.push_back({u, v});
  }

  /// Edges recorded so far (including duplicates / self-loops).
  [[nodiscard]] std::size_t num_edges_added() const noexcept {
    return edges_.size();
  }

  [[nodiscard]] NodeId num_nodes() const noexcept { return num_nodes_; }

  /// Reserve capacity for e edges (optimization only).
  void reserve(std::size_t e) { edges_.reserve(e); }

  /// Produce the canonical immutable graph. The builder is left empty.
  [[nodiscard]] Graph build();

 private:
  NodeId num_nodes_ = 0;
  std::vector<Edge> edges_;
};

}  // namespace kcore::graph
