#include "graph/mutable_graph.h"

#include <algorithm>

#include "util/check.h"

namespace kcore::graph {

MutableGraph::MutableGraph(const Graph& initial)
    : adjacency_(initial.num_nodes()), num_edges_(initial.num_edges()) {
  for (NodeId u = 0; u < initial.num_nodes(); ++u) {
    const auto nbrs = initial.neighbors(u);
    adjacency_[u].assign(nbrs.begin(), nbrs.end());
  }
}

MutableGraph::MutableGraph(NodeId num_nodes,
                           std::span<const Edge> canonical_edges)
    : adjacency_(num_nodes), num_edges_(canonical_edges.size()) {
  std::vector<NodeId> degree(num_nodes, 0);
  for (const Edge& e : canonical_edges) {
    KCORE_DCHECK(e.u < e.v && e.v < num_nodes);
    ++degree[e.u];
    ++degree[e.v];
  }
  for (NodeId u = 0; u < num_nodes; ++u) adjacency_[u].reserve(degree[u]);
  for (const Edge& e : canonical_edges) {
    adjacency_[e.u].push_back(e.v);
    adjacency_[e.v].push_back(e.u);
  }
}

bool MutableGraph::has_edge(NodeId u, NodeId v) const {
  const auto& a = adjacency_[u];
  return std::binary_search(a.begin(), a.end(), v);
}

bool MutableGraph::apply(const EdgeUpdate& update) {
  const NodeId u = update.u;
  const NodeId v = update.v;
  if (u == v) return false;
  const bool present = has_edge(u, v);
  if (update.op == EdgeOp::kInsert) {
    if (present) return false;
    auto insert_sorted = [](std::vector<NodeId>& a, NodeId x) {
      a.insert(std::upper_bound(a.begin(), a.end(), x), x);
    };
    insert_sorted(adjacency_[u], v);
    insert_sorted(adjacency_[v], u);
    ++num_edges_;
  } else {
    if (!present) return false;
    auto erase_sorted = [](std::vector<NodeId>& a, NodeId x) {
      a.erase(std::lower_bound(a.begin(), a.end(), x));
    };
    erase_sorted(adjacency_[u], v);
    erase_sorted(adjacency_[v], u);
    --num_edges_;
  }
  ++version_;
  return true;
}

NodeId MutableGraph::add_node() {
  adjacency_.emplace_back();
  ++version_;
  return static_cast<NodeId>(adjacency_.size() - 1);
}

std::vector<Edge> MutableGraph::edges() const {
  std::vector<Edge> edges;
  edges.reserve(num_edges_);
  for (NodeId u = 0; u < num_nodes(); ++u) {
    for (const NodeId v : adjacency_[u]) {
      if (u < v) edges.push_back({u, v});
    }
  }
  return edges;
}

Graph MutableGraph::snapshot() const {
  return Graph::from_edges(num_nodes(), edges());
}

}  // namespace kcore::graph
