// The k-order: the one insertion routine of both incremental paths
// (live::RepairEngine and core::DynamicKCore).
//
// Inserting {u,v} raises coreness by at most one, and only for nodes of
// coreness K = min(k(u), k(v)) connected to the endpoints through such
// nodes. Searching that K-subcore for the rising set can walk most of the
// graph for a set of zero nodes. A k-order bounds the search instead
// (Zhang, Yu, Zhang and Qin, "A Fast Order-Based Approach for Core
// Maintenance", ICDE 2017; simplified by Guo and Sekerinski,
// arXiv:2201.07103). A k-order is a peel order of the graph: nodes sorted
// by level (= coreness), and each node v keeps deg+(v), the number of its
// neighbors later in the order, with deg+(v) <= level(v). An insertion
// only visits nodes of level K after the earlier endpoint that gained a
// candidate neighbor before them, in order, and settles each one as it
// is reached.
//
// Order queries are (level, label) comparisons: each level is a doubly
// linked list whose 64-bit labels increase along it, relabelled locally
// when a gap closes (Bender, Cole, Demaine, Farach-Colton and Zito, "Two
// Simplified Algorithms for Maintaining Order in a List", ESA 2002).
//
// Removals keep the protocol's own route: the caller relaxes downward
// from the endpoints and then hands the converged levels to settle(),
// which moves the nodes that dropped to the tails of their new levels.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "graph/graph.h"
#include "graph/mutable_graph.h"
#include "util/check.h"

namespace kcore::core {

/// Ordered lists over the elements 0..n-1; each element is in at most
/// one list. Every list keeps labels that increase from head to tail, so
/// two elements of one list compare in O(1). Inserting into a closed gap
/// relabels the smallest aligned range of 2^i labels around it that holds
/// fewer than (4/3)^i elements (Bender et al.), which costs amortized
/// O(log n) relabels per insertion.
class OrderList {
 public:
  static constexpr graph::NodeId kNone = graph::kInvalidNode;

  /// Forget every list and make `elements` unlinked elements.
  void reset(graph::NodeId elements);
  /// Append one unlinked element; returns its id.
  graph::NodeId add_element();

  /// Link the unlinked `x` into `list` right after `after` (kNone: at
  /// the head).
  void insert_after(graph::NodeId list, graph::NodeId after, graph::NodeId x);
  /// Link the unlinked `x` at the tail of `list`.
  void push_back(graph::NodeId list, graph::NodeId x) {
    insert_after(list, tail(list), x);
  }
  /// Unlink `x` from `list`, which must hold it.
  void erase(graph::NodeId list, graph::NodeId x);

  [[nodiscard]] graph::NodeId num_lists() const noexcept {
    return static_cast<graph::NodeId>(head_.size());
  }
  [[nodiscard]] graph::NodeId head(graph::NodeId list) const {
    return list < num_lists() ? head_[list] : kNone;
  }
  [[nodiscard]] graph::NodeId tail(graph::NodeId list) const {
    return list < num_lists() ? tail_[list] : kNone;
  }
  [[nodiscard]] graph::NodeId next(graph::NodeId x) const { return next_[x]; }
  [[nodiscard]] std::uint64_t label(graph::NodeId x) const {
    return label_[x];
  }
  /// Labels rewritten by relabelling since reset().
  [[nodiscard]] std::uint64_t relabelled() const noexcept {
    return relabelled_;
  }

 private:
  void relabel_around(graph::NodeId x);

  std::vector<std::uint64_t> label_;
  std::vector<graph::NodeId> prev_;
  std::vector<graph::NodeId> next_;
  std::vector<graph::NodeId> head_;  // per list
  std::vector<graph::NodeId> tail_;
  std::uint64_t relabelled_ = 0;
};

/// A valid k-order over a MutableGraph, kept valid across insertions
/// (insert), removals (note_remove + settle) and new nodes (add_node).
/// Single-threaded; the owner mutates the graph and calls in here.
class CoreOrder {
 public:
  /// The graph must outlive the order. Call build() before anything else.
  explicit CoreOrder(const graph::MutableGraph& graph) : graph_(graph) {}

  /// One O(n + m) bucket peel of the current graph: its removal order is
  /// the k-order, a node's level is its coreness and its deg+ is its
  /// degree at removal.
  void build();

  /// The edge {u,v} was just added to the graph and every level is still
  /// exact. Returns the rising set V*: the nodes whose coreness rises
  /// from K = min(level(u), level(v)) to K+1. They are already at level
  /// K+1 in the order; the caller stores K+1 in its own table.
  const std::vector<graph::NodeId>& insert(graph::NodeId u, graph::NodeId v);

  /// The edge {u,v} was just removed from the graph: the earlier
  /// endpoint loses a later neighbor. Levels become upper bounds until
  /// settle().
  void note_remove(graph::NodeId u, graph::NodeId v);

  /// Adopt the converged levels after the downward relaxation that
  /// followed the removals: `level_of(x)` is x's exact coreness, never
  /// above level(x). Finds the dropped nodes with one O(n) scan and moves
  /// them to the tails of their new levels; a no-op when no removal was
  /// noted since the last settle().
  template <typename LevelOf>
  void settle(const LevelOf& level_of) {
    if (!unsettled_) return;
    unsettled_ = false;
    dropped_.clear();
    const auto n = static_cast<graph::NodeId>(level_.size());
    for (graph::NodeId x = 0; x < n; ++x) {
      const graph::NodeId k = level_of(x);
      KCORE_CHECK_MSG(k <= level_[x], "settle: node " << x << " rose from "
                                                      << level_[x] << " to "
                                                      << k);
      if (k < level_[x]) dropped_.emplace_back(x, k);
    }
    if (!dropped_.empty()) place_dropped();
  }

  /// The graph just gained an isolated node: it joins level 0 at the tail.
  void add_node();

  [[nodiscard]] graph::NodeId level(graph::NodeId x) const {
    return level_[x];
  }
  [[nodiscard]] graph::NodeId deg_plus(graph::NodeId x) const {
    return deg_plus_[x];
  }
  /// Whether x comes before y in the order.
  [[nodiscard]] bool before(graph::NodeId x, graph::NodeId y) const {
    return level_[x] != level_[y] ? level_[x] < level_[y]
                                  : lists_.label(x) < lists_.label(y);
  }
  /// The per-level lists (list k holds level k in order).
  [[nodiscard]] const OrderList& lists() const noexcept { return lists_; }
  /// Nodes the last insert() visited (its heap pops).
  [[nodiscard]] std::uint64_t visited() const noexcept { return visited_; }

 private:
  // Per-node pass state; everything is kIdle between calls.
  enum State : std::uint8_t {
    kIdle,
    kQueued,     // insert(): in the heap
    kStayed,     // insert(): visited, keeps level K
    kCandidate,  // insert(): may rise
    kEvicting,   // insert(): left the candidates, not yet placed
    kDropped,    // settle(): dropped and not yet placed
  };

  void push(graph::NodeId x);
  /// A visited node stays at level K: credit it its candidates, then
  /// evict every candidate that can no longer rise, placing each after
  /// `w` in eviction order.
  void stay(graph::NodeId w, graph::NodeId K);
  void place_dropped();

  const graph::MutableGraph& graph_;
  std::vector<graph::NodeId> level_;
  std::vector<graph::NodeId> deg_plus_;
  OrderList lists_;
  bool unsettled_ = false;

  // Scratch, kept across calls so the steady state does not allocate.
  std::vector<graph::NodeId> deg_star_;  // candidate neighbors before x
  std::vector<State> state_;
  std::vector<std::pair<std::uint64_t, graph::NodeId>> heap_;  // (label, x)
  std::vector<graph::NodeId> popped_;
  std::vector<graph::NodeId> evicting_;
  std::vector<std::pair<graph::NodeId, graph::NodeId>> moves_;  // (after, x)
  std::vector<graph::NodeId> rising_;
  std::vector<std::pair<graph::NodeId, graph::NodeId>> dropped_;  // (x, k)
  std::uint64_t visited_ = 0;
};

}  // namespace kcore::core
