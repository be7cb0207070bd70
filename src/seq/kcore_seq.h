// Sequential (centralized) k-core decomposition.
//
// Two independent implementations:
//  * coreness_bz    — the Batagelj–Zaveršnik O(m) bucket algorithm, the
//                     paper's reference [3] and our performance baseline;
//  * coreness_peeling — naive iterated removal straight from Definition 1,
//                     O(N*M) worst case, kept as an oracle to cross-check
//                     the optimized implementation in tests.
//
// The bucket algorithm is written once, as bz_peel(), for any adjacency:
// coreness_bz, degeneracy_order and core::CoreOrder::build (whose k-order
// is by definition its removal order) all call it.
//
// Plus utilities built on a coreness vector: shell sizes, k-core
// membership/subgraph extraction, degeneracy order, and a verifier for the
// paper's Theorem 1 (locality).
#pragma once

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <vector>

#include "graph/graph.h"

namespace kcore::seq {

using graph::Graph;
using graph::NodeId;

/// What one bucket peel yields.
struct BzPeel {
  /// The removal order: non-decreasing level; ties keep the bucket
  /// algorithm's own order (node ids within each initial degree bucket,
  /// then each lowered node moved to the front of its new bucket).
  std::vector<NodeId> order;
  /// level[u] = u's degree when removed = its coreness.
  std::vector<NodeId> level;
  /// deg_plus[u] = u's neighbors later in `order`; empty unless asked for.
  std::vector<NodeId> deg_plus;
};

/// The Batagelj–Zaveršnik bucket peel; O(N + M) time, O(N) extra space.
/// Nodes sit in `order` sorted by their current degree (bucket d starts
/// at start[d]). Removing the next node u freezes its degree as its level;
/// each neighbor still in a higher bucket swaps to the front of that
/// bucket, which then shrinks past it. kCountDegPlus also counts deg+
/// inline, in a branch the plain peel does not compile.
template <bool kCountDegPlus = false, typename Adjacency>
[[nodiscard]] BzPeel bz_peel(const Adjacency& g) {
  const NodeId n = g.num_nodes();
  BzPeel peel;
  std::vector<NodeId>& level = peel.level;
  std::vector<NodeId>& order = peel.order;
  level.resize(n);
  NodeId max_degree = 0;
  for (NodeId u = 0; u < n; ++u) {
    level[u] = g.degree(u);
    max_degree = std::max(max_degree, level[u]);
  }
  if constexpr (kCountDegPlus) peel.deg_plus = level;

  std::vector<NodeId> start(static_cast<std::size_t>(max_degree) + 1, 0);
  for (NodeId u = 0; u < n; ++u) ++start[level[u]];
  std::exclusive_scan(start.begin(), start.end(), start.begin(), NodeId{0});
  order.resize(n);
  std::vector<NodeId> pos(n);
  for (NodeId u = 0; u < n; ++u) {
    pos[u] = start[level[u]]++;
    order[pos[u]] = u;
  }
  // start[d] now ends bucket d: shift it back to the bucket's first slot.
  std::copy_backward(start.begin(), start.end() - 1, start.end());
  start[0] = 0;

  for (NodeId i = 0; i < n; ++i) {
    const NodeId u = order[i];
    const NodeId k = level[u];  // final: u's coreness
    for (const NodeId v : g.neighbors(u)) {
      if constexpr (kCountDegPlus) {
        if (pos[v] > i) --peel.deg_plus[v];
      }
      // Removed nodes and u's own bucket sit at or below k.
      if (level[v] <= k) continue;
      const NodeId front = start[level[v]];
      const NodeId w = order[front];
      order[pos[v]] = w;
      pos[w] = pos[v];
      order[front] = v;
      pos[v] = front;
      ++start[level[v]];
      --level[v];
    }
  }
  return peel;
}

/// Batagelj–Zaveršnik bucket algorithm: bz_peel's levels.
/// Returns coreness[u] for every node.
[[nodiscard]] std::vector<NodeId> coreness_bz(const Graph& g);

/// Naive peeling oracle: repeatedly delete all nodes of degree < k.
/// Exponentially simpler to audit than BZ; used for differential testing.
[[nodiscard]] std::vector<NodeId> coreness_peeling(const Graph& g);

/// Summary statistics of a coreness vector (Table 1's kmax / kavg columns).
struct CorenessSummary {
  NodeId k_max = 0;
  double k_avg = 0.0;
  /// shell_sizes[k] = number of nodes with coreness exactly k.
  std::vector<std::size_t> shell_sizes;
};

[[nodiscard]] CorenessSummary summarize_coreness(
    const std::vector<NodeId>& coreness);

/// membership[u] = true iff u belongs to the k-core (coreness >= k).
[[nodiscard]] std::vector<bool> kcore_membership(
    const std::vector<NodeId>& coreness, NodeId k);

/// Induced subgraph of the k-core. `dense_of_original[u]` maps an original
/// node to its id in the subgraph (kInvalidNode if outside the core).
struct CoreSubgraph {
  Graph graph;
  std::vector<NodeId> original_of_dense;
  std::vector<NodeId> dense_of_original;
};

[[nodiscard]] CoreSubgraph kcore_subgraph(const Graph& g,
                                          const std::vector<NodeId>& coreness,
                                          NodeId k);

/// Degeneracy order: bz_peel's removal order (non-decreasing coreness).
/// The graph's degeneracy equals max coreness.
[[nodiscard]] std::vector<NodeId> degeneracy_order(const Graph& g);

/// Verify the paper's Theorem 1 for every node: k(u) is the largest k such
/// that u has >= k neighbors of coreness >= k. Returns true iff the given
/// vector is a fixed point of that recurrence AND matches on degree caps;
/// used to validate both baselines and distributed outputs.
[[nodiscard]] bool satisfies_locality(const Graph& g,
                                      const std::vector<NodeId>& coreness);

}  // namespace kcore::seq
