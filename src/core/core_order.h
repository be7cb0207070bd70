// The k-order: the one insertion and the one removal routine of both
// incremental paths (live::RepairEngine and core::DynamicKCore).
//
// Inserting {u,v} raises coreness by at most one, and only for nodes of
// coreness K = min(k(u), k(v)) connected to the endpoints through such
// nodes. Searching that K-subcore for the rising set can walk most of the
// graph for a set of zero nodes. A k-order bounds the search instead
// (Zhang, Yu, Zhang and Qin, "A Fast Order-Based Approach for Core
// Maintenance", ICDE 2017; simplified by Guo and Sekerinski,
// arXiv:2201.07103). A k-order is a peel order of the graph: nodes sorted
// by level (= coreness), and each node v keeps deg+(v), the number of its
// neighbors later in the order, with deg+(v) <= level(v). build() lays
// out the removal order of seq::bz_peel, the repo's one
// Batagelj–Zaveršnik bucket peel, which counts deg+ as it peels. adopt()
// takes a stored order instead (a recovery checkpoint's) and checks it
// with an O(n + m) certificate that proves the stored levels are the
// coreness, as the peel would. An insertion only visits nodes of level K
// after the earlier endpoint that gained a candidate neighbor before
// them, in order, and decides each one as it is reached.
//
// Order queries are (level, label) comparisons: each level is a doubly
// linked list whose 64-bit labels increase along it, relabelled locally
// when a gap closes (Bender, Cole, Demaine, Farach-Colton and Zito, "Two
// Simplified Algorithms for Maintaining Order in a List", ESA 2002).
//
// A removal is the mirror image (the mcd-based removal of Zhang et al.,
// after the traversal removal of Sariyüce, Gedik, Jacques-Silva, Wu and
// Çatalyürek, "Incremental k-core decomposition", VLDB J. 25(3), 2016).
// Deleting {u,v} lowers coreness by at most one, and only for nodes of
// level K = min(level(u), level(v)) that lose their support. Each node
// keeps a count, a lower bound on its neighbors at or above its own
// level (0: no information). remove() recounts only the level-K nodes
// whose count falls below K, and a node whose exact count is below K
// falls to the tail of level K-1, taking one count from each neighbor
// still at K. The counts stay lower bounds across insertions: a raise or
// a new edge only adds support, and the risen nodes start over at 0.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
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
/// (insert), removals (remove) and new nodes (add_node), one edge at a
/// time.
/// Single-threaded; the owner mutates the graph and calls in here.
class CoreOrder {
 public:
  /// The graph must outlive the order. Call build() before anything else.
  explicit CoreOrder(const graph::MutableGraph& graph) : graph_(graph) {}

  /// One O(n + m) bucket peel of the current graph (seq::bz_peel, the
  /// one Batagelj–Zaveršnik peel): its removal order is the k-order, a
  /// node's level is its coreness and its deg+ is its number of
  /// neighbors still unpeeled at its removal.
  void build();

  /// Adopt a stored k-order in place of build()'s peel: `levels[x]`
  /// claims x's coreness and `order` lists every node once, a k-order for
  /// those levels. Checks the claim in O(n + m): levels never decrease
  /// along `order`, and every node u has
  ///  (b) at most levels[u] neighbors later in `order` (its deg+), and
  ///  (a) at least levels[u] neighbors v with levels[v] >= levels[u].
  /// (a) puts each node in the levels[u]-core, so levels <= coreness;
  /// its count is kept as the node's support count.
  /// Under (b) the first node of the k-core in `order` has at least k
  /// later neighbors, so its level, and every level after it, is >= k:
  /// levels >= coreness. Returns the node and the check that failed, or
  /// nullopt once the order is laid out; after a failure the order must
  /// not be used.
  [[nodiscard]] std::optional<std::string> adopt(
      std::span<const graph::NodeId> levels,
      std::span<const graph::NodeId> order);

  /// Append the order, level by level, to `out` (cleared first).
  void copy_order(std::vector<graph::NodeId>& out) const;

  /// The edge {u,v} was just added to the graph and every level is still
  /// exact. Returns the rising set V*: the nodes whose coreness rises
  /// from K = min(level(u), level(v)) to K+1. They are already at level
  /// K+1 in the order; the caller stores K+1 in its own table.
  const std::vector<graph::NodeId>& insert(graph::NodeId u, graph::NodeId v);

  /// The edge {u,v} was just removed from the graph and every level is
  /// still exact for the graph before it. Returns the falling set: the
  /// nodes whose coreness falls from K = min(level(u), level(v)) to K-1.
  /// They are already at the tail of level K-1 in the order; the caller
  /// stores K-1 in its own table.
  const std::vector<graph::NodeId>& remove(graph::NodeId u, graph::NodeId v);

  /// The graph just gained an isolated node: it joins level 0 at the tail.
  void add_node();

  [[nodiscard]] graph::NodeId level(graph::NodeId x) const {
    return level_[x];
  }
  /// Every node's level, by node id.
  [[nodiscard]] std::span<const graph::NodeId> levels() const noexcept {
    return level_;
  }
  [[nodiscard]] graph::NodeId deg_plus(graph::NodeId x) const {
    return deg_plus_[x];
  }
  /// x's support count: a lower bound on its neighbors at or above its
  /// level, 0 for no information.
  [[nodiscard]] graph::NodeId count(graph::NodeId x) const {
    return count_[x];
  }
  /// Whether x comes before y in the order.
  [[nodiscard]] bool before(graph::NodeId x, graph::NodeId y) const {
    return level_[x] != level_[y] ? level_[x] < level_[y]
                                  : lists_.label(x) < lists_.label(y);
  }
  /// The per-level lists (list k holds level k in order).
  [[nodiscard]] const OrderList& lists() const noexcept { return lists_; }
  /// Nodes the last insert() visited (its heap pops), or whose neighbors
  /// the last remove() read (its recounts and falls).
  [[nodiscard]] std::uint64_t visited() const noexcept { return visited_; }

 private:
  // Per-node pass state; everything is kIdle between calls.
  enum State : std::uint8_t {
    kIdle,
    kQueued,     // insert(): in the heap
    kStayed,     // insert(): visited, keeps level K
    kCandidate,  // insert(): may rise
    kEvicting,   // insert(): left the candidates, not yet placed
    kCounted,    // remove(): count recounted, exact for this pass
    kFalling,    // remove(): falls to K-1
  };

  void push(graph::NodeId x);
  /// remove(): x is at level K; queue it to fall unless its count, made
  /// exact first, is at least K.
  void check(graph::NodeId x, graph::NodeId K);
  /// A visited node stays at level K: credit it its candidates, then
  /// evict every candidate that can no longer rise, placing each after
  /// `w` in eviction order.
  void stay(graph::NodeId w, graph::NodeId K);

  const graph::MutableGraph& graph_;
  std::vector<graph::NodeId> level_;
  std::vector<graph::NodeId> deg_plus_;
  std::vector<graph::NodeId> count_;  // support counts (lower bounds)
  OrderList lists_;

  // Scratch, kept across calls so the steady state does not allocate.
  std::vector<graph::NodeId> deg_star_;  // candidate neighbors before x
  std::vector<State> state_;
  std::vector<std::pair<std::uint64_t, graph::NodeId>> heap_;  // (label, x)
  std::vector<graph::NodeId> popped_;  // insert(): pops; remove(): recounts
  std::vector<graph::NodeId> evicting_;
  std::vector<std::pair<graph::NodeId, graph::NodeId>> moves_;  // (after, x)
  std::vector<graph::NodeId> rising_;
  std::vector<graph::NodeId> falling_;
  std::uint64_t visited_ = 0;
};

}  // namespace kcore::core
