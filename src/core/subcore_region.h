// The insertion candidate region, shared by core::DynamicKCore and
// live::RepairEngine.
//
// Inserting {u,v} raises coreness by at most one, and only for nodes of
// coreness K = min(k(u), k(v)) reachable from the endpoints through such
// nodes (core/dynamic.h). The DFS continues only through nodes with
// cd(w) = #{x ~ w : k(x) >= K} >= K+1 (purecore pruning: a rising node
// needs K+1 neighbors that can end at >= K+1, and the rising set is
// connected through rising nodes). The peel then drops candidates with
// fewer than K+1 supporters among (estimate >= K+1) ∪ (still in the
// region) down to the unique maximal fixpoint: against an exact table,
// exactly the nodes whose coreness rises (pinned by tests/test_live.cpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "graph/graph.h"

namespace kcore::core {

/// Caller-owned state of subcore_region(). Kept across calls, it makes
/// the steady state allocation-free.
struct RegionScratch {
  /// The last call's region, in discovery order.
  std::vector<graph::NodeId> region;
  std::vector<graph::NodeId> stack;
  /// One flag per node; all zero between calls. The caller sizes it to
  /// the node count (and grows it with the graph).
  std::vector<std::uint8_t> in_region;
};

/// Collect into scratch.region the candidate region of an insertion of
/// {u,v} (already applied to the adjacency) with K = min(est(u), est(v)):
/// the K-subcore DFS with purecore pruning, then the support peel.
/// `estimate(w)` returns w's current estimate and `neighbors(w)` an
/// iterable range of w's neighbors.
template <typename EstimateOf, typename NeighborsOf>
const std::vector<graph::NodeId>& subcore_region(graph::NodeId u,
                                                 graph::NodeId v,
                                                 graph::NodeId K,
                                                 const EstimateOf& estimate,
                                                 const NeighborsOf& neighbors,
                                                 RegionScratch& scratch) {
  std::vector<graph::NodeId>& region = scratch.region;
  std::vector<graph::NodeId>& stack = scratch.stack;
  std::vector<std::uint8_t>& in_region = scratch.in_region;
  auto can_rise = [&](graph::NodeId w) {
    if (estimate(w) != K) return false;
    graph::NodeId cd = 0;
    for (const graph::NodeId x : neighbors(w)) {
      if (estimate(x) >= K && ++cd > K) return true;
    }
    return false;  // cd <= K
  };

  region.clear();
  stack.clear();
  for (const graph::NodeId r : {u, v}) {
    if (!in_region[r] && can_rise(r)) {
      in_region[r] = 1;
      stack.push_back(r);
    }
  }
  while (!stack.empty()) {
    const graph::NodeId w = stack.back();
    stack.pop_back();
    region.push_back(w);
    for (const graph::NodeId x : neighbors(w)) {
      if (!in_region[x] && can_rise(x)) {
        in_region[x] = 1;
        stack.push_back(x);
      }
    }
  }

  bool changed = true;
  while (changed) {
    changed = false;
    std::size_t keep = 0;
    for (std::size_t i = 0; i < region.size(); ++i) {
      const graph::NodeId w = region[i];
      graph::NodeId support = 0;
      for (const graph::NodeId x : neighbors(w)) {
        if (estimate(x) >= K + 1 || in_region[x]) ++support;
      }
      if (support >= K + 1) {
        region[keep++] = w;
      } else {
        in_region[w] = 0;
        changed = true;
      }
    }
    region.resize(keep);
  }
  for (const graph::NodeId w : region) in_region[w] = 0;
  return region;
}

}  // namespace kcore::core
