// Dynamic k-core maintenance for "live" graphs.
//
// The paper's one-to-one scenario is a running P2P system that inspects
// itself; real overlays churn. This module extends the protocol to edge
// insertions and deletions without restarting from scratch, using two
// classical structural facts (Li/Yu, Sariyüce et al.):
//
//  * inserting one edge can increase coreness by at most 1, and only for
//    nodes in the K-subcore reachable from the endpoints through nodes of
//    coreness exactly K, where K = min(k(u), k(v));
//  * deleting one edge can decrease coreness by at most 1, again only
//    within that region.
//
// Consequently:
//  * after a DELETION the old coreness values are still safe upper bounds
//    (coreness only went down), so the protocol warm-starts from them
//    with just the two endpoints re-activated and convergence is local
//    and fast. Theorems 2/3 carry over with one exception: computeIndex
//    floors at 1, so a node left with no edges takes 0 directly;
//  * after an INSERTION old values may under-estimate, so safety is
//    restored by raising every node whose coreness rises to K+1 before
//    re-activating it. The rising set comes from the maintained k-order
//    (core::CoreOrder, core/core_order.h, shared with live::RepairEngine),
//    which visits only the nodes of level K after the earlier endpoint
//    that gained a candidate neighbor. Everything else is provably
//    unaffected.
//
// The k-order also repairs every deletion by itself (CoreOrder::remove),
// so after each reconvergence two independent computations must agree:
// the protocol's estimates and the k-order's levels. A disagreement
// throws util::CheckError.
//
// The maintenance protocol is simulated in synchronous rounds over the
// graph layer's mutable adjacency (graph::MutableGraph, the one the live
// service keeps too); per-update round and message costs are
// returned so the savings over a full §3.1 re-run can be measured
// (bench/ablation_dynamic).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/core_order.h"
#include "graph/edge_list.h"
#include "graph/graph.h"
#include "graph/mutable_graph.h"

namespace kcore::core {

/// Cost of one update or of the initial convergence.
struct MaintenanceStats {
  std::uint64_t rounds = 0;
  std::uint64_t messages = 0;
  /// Nodes re-activated: the rising sets and the updates' endpoints.
  std::uint64_t nodes_activated = 0;
};

/// A living k-core decomposition over a mutable undirected graph.
///
/// All operations keep `coreness()` exact (equal to a from-scratch
/// decomposition of the current graph) — verified exhaustively in
/// tests/test_dynamic.cpp against the sequential baseline.
class DynamicKCore {
 public:
  /// Start from an initial graph; builds the k-order, then runs the
  /// protocol to convergence and checks it against the k-order.
  explicit DynamicKCore(const graph::Graph& initial);
  // The k-order holds a reference to graph_.
  DynamicKCore(const DynamicKCore&) = delete;
  DynamicKCore& operator=(const DynamicKCore&) = delete;

  /// Insert edge {u,v} (no-op if present; self-loops rejected): a
  /// one-update apply_batch, so it charges the same messages and rounds.
  MaintenanceStats add_edge(graph::NodeId u, graph::NodeId v);

  /// Remove edge {u,v} (no-op if absent): a one-update apply_batch.
  MaintenanceStats remove_edge(graph::NodeId u, graph::NodeId v);

  /// Apply a whole batch of updates with ONE reconvergence instead of one
  /// per edge. graph::coalesce reduces the batch to its NET topology
  /// effect: self-loops, duplicate inserts, absent removes and
  /// insert+remove churn within the batch cost nothing. An out-of-range
  /// node id throws util::CheckError before anything is applied.
  ///
  /// Soundness of the single reconvergence: net insertions are applied
  /// one at a time, each raising its rising set (CoreOrder::insert) to
  /// K+1. The k-order is exact while the estimates are, so the estimates
  /// remain exact after every insertion step by induction. Net deletions
  /// then only lower coreness, so the table is a safe upper bound and one
  /// downward reconvergence from all touched nodes restores exactness
  /// (Theorem 2). CoreOrder::remove repairs the k-order one deletion at a
  /// time, and the reconverged table must equal its levels.
  MaintenanceStats apply_batch(std::span<const graph::EdgeUpdate> updates);

  /// Append a fresh isolated node; returns its id.
  graph::NodeId add_node();

  /// Current exact coreness of every node.
  [[nodiscard]] const std::vector<graph::NodeId>& coreness() const noexcept {
    return estimate_;
  }

  /// The current topology (snapshot() it to cross-check against the
  /// sequential baseline).
  [[nodiscard]] const graph::MutableGraph& graph() const noexcept {
    return graph_;
  }

  /// Total cost since construction (sum over all reconvergences).
  [[nodiscard]] const MaintenanceStats& lifetime_stats() const noexcept {
    return lifetime_;
  }

 private:
  /// Synchronous reconvergence from the current (safe) estimates with the
  /// given initially-active frontier, then the check that the estimates
  /// equal the k-order's levels.
  /// `extra_messages` (the update events and raises that led here) is
  /// charged on top of the rounds' broadcasts; the total is added to
  /// lifetime_stats().
  MaintenanceStats reconverge(std::vector<graph::NodeId> frontier,
                              std::uint64_t extra_messages);

  graph::MutableGraph graph_;
  std::vector<graph::NodeId> estimate_;  // == coreness between updates
  MaintenanceStats lifetime_;
  CoreOrder order_{graph_};
};

}  // namespace kcore::core
