#include "seq/kcore_seq.h"

#include <algorithm>

#include "util/check.h"

namespace kcore::seq {

std::vector<NodeId> coreness_bz(const Graph& g) {
  return bz_peel(g).level;
}

std::vector<NodeId> coreness_peeling(const Graph& g) {
  const NodeId n = g.num_nodes();
  std::vector<NodeId> coreness(n, 0);
  std::vector<NodeId> degree(n);
  std::vector<bool> removed(n, false);
  for (NodeId u = 0; u < n; ++u) degree[u] = g.degree(u);

  NodeId remaining = n;
  NodeId k = 0;
  std::vector<NodeId> worklist;
  while (remaining > 0) {
    // Cascade-remove every node of degree <= k; a node removed while the
    // threshold is k has coreness k. When none is left, raise k.
    worklist.clear();
    for (NodeId u = 0; u < n; ++u) {
      if (!removed[u] && degree[u] <= k) worklist.push_back(u);
    }
    if (worklist.empty()) {
      ++k;
      continue;
    }
    while (!worklist.empty()) {
      const NodeId u = worklist.back();
      worklist.pop_back();
      if (removed[u]) continue;
      removed[u] = true;
      coreness[u] = k;
      --remaining;
      for (NodeId v : g.neighbors(u)) {
        if (removed[v]) continue;
        if (degree[v] > 0) --degree[v];
        if (degree[v] <= k) worklist.push_back(v);
      }
    }
  }
  return coreness;
}

CorenessSummary summarize_coreness(const std::vector<NodeId>& coreness) {
  CorenessSummary s;
  if (coreness.empty()) return s;
  s.k_max = *std::max_element(coreness.begin(), coreness.end());
  s.shell_sizes.assign(static_cast<std::size_t>(s.k_max) + 1, 0);
  double sum = 0.0;
  for (NodeId c : coreness) {
    ++s.shell_sizes[c];
    sum += static_cast<double>(c);
  }
  s.k_avg = sum / static_cast<double>(coreness.size());
  return s;
}

std::vector<bool> kcore_membership(const std::vector<NodeId>& coreness,
                                   NodeId k) {
  std::vector<bool> member(coreness.size());
  for (std::size_t u = 0; u < coreness.size(); ++u) {
    member[u] = coreness[u] >= k;
  }
  return member;
}

CoreSubgraph kcore_subgraph(const Graph& g,
                            const std::vector<NodeId>& coreness, NodeId k) {
  KCORE_CHECK_MSG(coreness.size() == g.num_nodes(),
                  "coreness vector size mismatch");
  CoreSubgraph out;
  out.dense_of_original.assign(g.num_nodes(), graph::kInvalidNode);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    if (coreness[u] >= k) {
      out.dense_of_original[u] =
          static_cast<NodeId>(out.original_of_dense.size());
      out.original_of_dense.push_back(u);
    }
  }
  graph::GraphBuilder b(static_cast<NodeId>(out.original_of_dense.size()));
  for (NodeId dense = 0;
       dense < static_cast<NodeId>(out.original_of_dense.size()); ++dense) {
    const NodeId u = out.original_of_dense[dense];
    for (NodeId v : g.neighbors(u)) {
      if (u < v && coreness[v] >= k) {
        b.add_edge(dense, out.dense_of_original[v]);
      }
    }
  }
  out.graph = b.build();
  return out;
}

std::vector<NodeId> degeneracy_order(const Graph& g) {
  return bz_peel(g).order;
}

bool satisfies_locality(const Graph& g,
                        const std::vector<NodeId>& coreness) {
  if (coreness.size() != g.num_nodes()) return false;
  std::vector<NodeId> count;  // reused scratch
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    const NodeId k = coreness[u];
    if (k > g.degree(u)) return false;  // coreness cannot exceed degree
    // (i) at least k neighbors with coreness >= k
    NodeId at_least_k = 0;
    NodeId at_least_k1 = 0;
    for (NodeId v : g.neighbors(u)) {
      if (coreness[v] >= k) ++at_least_k;
      if (coreness[v] >= k + 1) ++at_least_k1;
    }
    if (k > 0 && at_least_k < k) return false;
    // (ii) no k+1 neighbors with coreness >= k+1
    if (at_least_k1 >= k + 1) return false;
  }
  return true;
}

}  // namespace kcore::seq
