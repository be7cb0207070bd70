#include "core/dynamic.h"

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/compute_index.h"
#include "util/check.h"

namespace kcore::core {

using graph::NodeId;

DynamicKCore::DynamicKCore(const graph::Graph& initial)
    : graph_(initial), estimate_(initial.num_nodes()) {
  for (NodeId u = 0; u < initial.num_nodes(); ++u) {
    estimate_[u] = initial.degree(u);
  }
  // Initial convergence: everyone starts active with estimate = degree,
  // exactly Algorithm 1's initialization.
  std::vector<NodeId> all(initial.num_nodes());
  for (NodeId u = 0; u < initial.num_nodes(); ++u) all[u] = u;
  reconverge(std::move(all), 0);
  order_.build();
}

NodeId DynamicKCore::add_node() {
  estimate_.push_back(0);
  const NodeId u = graph_.add_node();
  order_.add_node();
  return u;
}

MaintenanceStats DynamicKCore::add_edge(NodeId u, NodeId v) {
  KCORE_CHECK_MSG(u != v, "self-loops are not allowed");
  const graph::EdgeUpdate update{graph::EdgeOp::kInsert, u, v};
  return apply_batch({&update, 1});
}

MaintenanceStats DynamicKCore::remove_edge(NodeId u, NodeId v) {
  const graph::EdgeUpdate update{graph::EdgeOp::kRemove, u, v};
  return apply_batch({&update, 1});
}

MaintenanceStats DynamicKCore::apply_batch(
    std::span<const graph::EdgeUpdate> updates) {
  // Net topology effect; self-loops are ignored, matching GraphBuilder.
  const graph::NetUpdates net = graph::coalesce(
      updates, graph_.num_nodes(),
      [this](NodeId u, NodeId v) { return graph_.has_edge(u, v); });
  KCORE_CHECK_MSG(net.rejected == 0, "node out of range");
  if (net.inserts.empty() && net.removes.empty()) return {};

  // Distributed cost accounting: the endpoints exchange the edge event
  // (2 messages); each rising node is probed and replies once per
  // incident edge (~2·degree) and re-broadcasts its raised estimate
  // (degree messages).
  std::vector<NodeId> frontier;
  std::uint64_t extra_messages = 0;
  // Insertions first, one raise at a time: each raise runs against exact
  // estimates of the graph-so-far (see the header comment), so the table
  // stays exact through the whole insertion pass.
  for (const auto& [u, v] : net.inserts) {
    graph_.apply({graph::EdgeOp::kInsert, u, v});
    const auto& rising = order_.insert(u, v);
    extra_messages += 2;
    // Raise the rising set to its new coreness K+1; the table stays a
    // safe upper bound (exact, until the deletions below), so plain
    // downward convergence keeps the exact values.
    for (const NodeId w : rising) {
      estimate_[w] = order_.level(w);
      extra_messages += 3 * graph_.degree(w);
    }
    frontier.insert(frontier.end(), rising.begin(), rising.end());
    // Endpoints always re-examine (their degree changed even if their
    // estimates did not).
    frontier.push_back(u);
    frontier.push_back(v);
  }
  // Deletions second: deletion only lowers coreness, so estimates stay
  // safe upper bounds, and the single downward reconvergence below
  // restores exactness for the whole batch. The endpoints learn of the
  // drop with one message each.
  for (const auto& [u, v] : net.removes) {
    graph_.apply({graph::EdgeOp::kRemove, u, v});
    order_.note_remove(u, v);
    extra_messages += 2;
    frontier.push_back(u);
    frontier.push_back(v);
  }

  return reconverge(std::move(frontier), extra_messages);
}

MaintenanceStats DynamicKCore::reconverge(std::vector<NodeId> frontier,
                                          std::uint64_t extra_messages) {
  MaintenanceStats stats;
  stats.messages = extra_messages;
  // Deduplicate the initial frontier.
  std::sort(frontier.begin(), frontier.end());
  frontier.erase(std::unique(frontier.begin(), frontier.end()),
                 frontier.end());
  stats.nodes_activated = frontier.size();

  // Synchronous rounds over "published" estimates: a node recomputes from
  // the values its neighbors last broadcast — the same information flow
  // as Algorithm 1, with a broadcast costing degree() point-to-point
  // messages. `estimate_` doubles as the published value because in the
  // synchronous schedule every change is published in the same round.
  IndexScratch index;
  std::vector<bool> queued(graph_.num_nodes(), false);
  std::vector<NodeId> next;
  for (const NodeId u : frontier) queued[u] = true;

  while (!frontier.empty()) {
    ++stats.rounds;
    next.clear();
    // Snapshot semantics: compute all updates against the current
    // published values, then apply and broadcast together.
    std::vector<std::pair<NodeId, NodeId>> updates;  // (node, new value)
    for (const NodeId w : frontier) {
      queued[w] = false;
      const NodeId current = estimate_[w];
      if (current == 0) continue;
      const auto neighbors = graph_.neighbors(w);
      const NodeId t = index.compute_index_stream(
          neighbors.size(), current,
          [&](std::size_t i) { return estimate_[neighbors[i]]; });
      if (t < current) updates.emplace_back(w, t);
    }
    for (const auto& [w, value] : updates) {
      estimate_[w] = value;
      stats.messages += graph_.degree(w);  // broadcast to neighbors
      for (const NodeId x : graph_.neighbors(w)) {
        if (!queued[x]) {
          queued[x] = true;
          next.push_back(x);
        }
      }
    }
    frontier.swap(next);
  }
  order_.settle([this](NodeId x) { return estimate_[x]; });
  lifetime_.rounds += stats.rounds;
  lifetime_.messages += stats.messages;
  lifetime_.nodes_activated += stats.nodes_activated;
  return stats;
}

}  // namespace kcore::core
