// core::CoreOrder, the k-order behind both incremental paths.
//
//  * validity — after every insert(), every remove() and every
//    add_node(), the order is a valid k-order of the current graph:
//    levels equal bz coreness, each level's labels increase along its
//    list, the stored deg+ equals a recount of the neighbors later in the
//    order, and deg+ <= level. Rmat, G(n,m), BA, cliques-plus-paths and
//    star/path/clique-teardown graphs, including one node dropped three
//    levels by three removals;
//  * build() lays out seq::degeneracy_order, the one bucket peel's
//    removal order, with deg+ counted against it;
//  * insert() returns exactly the nodes whose coreness rises, and
//    remove() exactly the nodes whose coreness falls; after every
//    remove() the copied order passes adopt()'s certificate and every
//    support count stays a lower bound;
//  * the label list survives an adversarial run of insertions into one
//    gap with amortized logarithmic relabelling;
//  * complexity — the insertion pass stays local on the profiles where
//    the K-subcore search it replaced walked most of the graph, and the
//    removal pass visits a small fraction of the level it repairs.
#include "core/core_order.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "eval/datasets.h"
#include "graph/generators.h"
#include "graph/mutable_graph.h"
#include "live/repair.h"
#include "seq/kcore_seq.h"
#include "util/rng.h"

namespace kcore::core {
namespace {

namespace gen = kcore::graph::gen;
using graph::EdgeOp;
using graph::Graph;
using graph::MutableGraph;
using graph::NodeId;

void expect_valid(const CoreOrder& order, const MutableGraph& g,
                  const std::string& context) {
  const NodeId n = g.num_nodes();
  const std::vector<NodeId> truth = seq::coreness_bz(g.snapshot());
  for (NodeId v = 0; v < n; ++v) {
    ASSERT_EQ(order.level(v), truth[v]) << context << ": level of " << v;
  }
  const OrderList& lists = order.lists();
  NodeId listed = 0;
  for (NodeId k = 0; k < lists.num_lists(); ++k) {
    NodeId prev = OrderList::kNone;
    for (NodeId v = lists.head(k); v != OrderList::kNone; v = lists.next(v)) {
      ASSERT_EQ(order.level(v), k) << context << ": node " << v;
      if (prev != OrderList::kNone) {
        ASSERT_LT(lists.label(prev), lists.label(v))
            << context << ": labels of " << prev << ", " << v;
      }
      ASSERT_LT(listed++, n) << context << ": a list has a cycle";
      prev = v;
    }
    ASSERT_EQ(prev, lists.tail(k)) << context << ": tail of level " << k;
  }
  ASSERT_EQ(listed, n) << context << ": nodes missing from the lists";
  for (NodeId v = 0; v < n; ++v) {
    NodeId later = 0;
    for (const NodeId w : g.neighbors(v)) {
      if (order.before(v, w)) ++later;
    }
    ASSERT_EQ(order.deg_plus(v), later) << context << ": deg+ of " << v;
    ASSERT_LE(order.deg_plus(v), order.level(v)) << context << ": node " << v;
  }
}

Graph cliques_and_paths(std::uint64_t seed) {
  const std::array<NodeId, 4> sizes{12, 8, 6, 5};
  return gen::attach_paths(gen::disjoint_cliques(sizes), 6, 10, seed);
}

Graph small_rmat(std::uint64_t seed) {
  graph::gen::RmatParams params;
  params.scale = 8;
  params.edge_factor = 4.0;
  return gen::rmat(params, seed);
}

struct Family {
  const char* name;
  Graph (*make)(std::uint64_t seed);
};

// Sparse G(n,m) has wide same-level plateaus, where an insertion evicts
// candidates next to nodes that still rise.
constexpr std::array<Family, 4> kFamilies{{
    {"rmat", small_rmat},
    {"er", [](std::uint64_t seed) { return gen::erdos_renyi_gnm(300, 900, seed); }},
    {"ba", [](std::uint64_t seed) { return gen::barabasi_albert(200, 4, seed); }},
    {"cliques+paths", cliques_and_paths},
}};

TEST(CoreOrder, BuildIsAValidKOrder) {
  for (const Family& family : kFamilies) {
    const MutableGraph g(family.make(3));
    CoreOrder order(g);
    order.build();
    expect_valid(order, g, family.name);
  }
}

TEST(CoreOrder, BuildLaysOutTheBzRemovalOrder) {
  // build() and seq::degeneracy_order run the same peel: the lists, read
  // from level 0 upward, are its removal order, and deg+ counts the
  // neighbors later in that order.
  for (const Family& family : kFamilies) {
    const MutableGraph g(family.make(3));
    CoreOrder order(g);
    order.build();
    const std::vector<NodeId> peel = seq::degeneracy_order(g.snapshot());
    std::vector<NodeId> laid_out;
    const OrderList& lists = order.lists();
    for (NodeId k = 0; k < lists.num_lists(); ++k) {
      for (NodeId v = lists.head(k); v != OrderList::kNone;
           v = lists.next(v)) {
        laid_out.push_back(v);
      }
    }
    ASSERT_EQ(laid_out, peel) << family.name;
    std::vector<NodeId> rank(g.num_nodes());
    for (NodeId i = 0; i < g.num_nodes(); ++i) rank[peel[i]] = i;
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      NodeId later = 0;
      for (const NodeId w : g.neighbors(v)) {
        if (rank[w] > rank[v]) ++later;
      }
      EXPECT_EQ(order.deg_plus(v), later) << family.name << ": node " << v;
    }
  }
}

TEST(CoreOrder, InsertReturnsExactlyTheRisingNodesAndStaysValid) {
  for (const Family& family : kFamilies) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      MutableGraph g(family.make(seed));
      CoreOrder order(g);
      order.build();
      util::Xoshiro256 rng(seed * 97);
      std::vector<NodeId> before = seq::coreness_bz(g.snapshot());
      std::uint64_t total_rose = 0;
      for (int inserted = 0; inserted < 120;) {
        const auto u = static_cast<NodeId>(rng.next_below(g.num_nodes()));
        const auto v = static_cast<NodeId>(rng.next_below(g.num_nodes()));
        if (!g.apply({EdgeOp::kInsert, u, v})) continue;
        ++inserted;
        const std::string context = std::string(family.name) + " seed " +
                                    std::to_string(seed) + " insert {" +
                                    std::to_string(u) + "," +
                                    std::to_string(v) + "}";
        std::vector<NodeId> rising = order.insert(u, v);
        ASSERT_NO_FATAL_FAILURE(expect_valid(order, g, context));
        const std::vector<NodeId> after = seq::coreness_bz(g.snapshot());
        std::vector<NodeId> rose;
        for (NodeId w = 0; w < g.num_nodes(); ++w) {
          if (after[w] > before[w]) rose.push_back(w);
        }
        std::sort(rising.begin(), rising.end());
        ASSERT_EQ(rising, rose) << context;
        total_rose += rose.size();
        before = after;
      }
      EXPECT_GT(total_rose, 0U) << family.name;
    }
  }
}

std::string adopt_result(const std::optional<std::string>& failed) {
  return failed.value_or("adopted");
}

/// The levels, read back from `order`.
std::vector<NodeId> levels_of(const CoreOrder& order, NodeId n) {
  std::vector<NodeId> levels(n);
  for (NodeId v = 0; v < n; ++v) levels[v] = order.level(v);
  return levels;
}

TEST(CoreOrder, AdoptTakesBackAMaintainedOrder) {
  // A k-order kept through inserts and removes, copied out and
  // adopted by a second CoreOrder, is the same order: same layout, same
  // deg+, and the same rising sets from then on.
  for (const Family& family : kFamilies) {
    MutableGraph g(family.make(5));
    CoreOrder kept(g);
    kept.build();
    util::Xoshiro256 rng(41);
    for (int i = 0; i < 60; ++i) {
      const auto u = static_cast<NodeId>(rng.next_below(g.num_nodes()));
      const auto v = static_cast<NodeId>(rng.next_below(g.num_nodes()));
      if (g.apply({EdgeOp::kInsert, u, v})) (void)kept.insert(u, v);
    }
    for (int i = 0; i < 30; ++i) {
      const auto u = static_cast<NodeId>(rng.next_below(g.num_nodes()));
      if (g.degree(u) == 0) continue;
      const NodeId v = g.neighbors(u)[rng.next_below(g.degree(u))];
      g.apply({EdgeOp::kRemove, u, v});
      (void)kept.remove(u, v);
    }

    std::vector<NodeId> stored;
    kept.copy_order(stored);
    CoreOrder adopted(g);
    const auto failed = adopted.adopt(levels_of(kept, g.num_nodes()), stored);
    ASSERT_FALSE(failed.has_value()) << family.name << ": " << *failed;
    ASSERT_NO_FATAL_FAILURE(expect_valid(adopted, g, family.name));
    std::vector<NodeId> again;
    adopted.copy_order(again);
    EXPECT_EQ(again, stored) << family.name;
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      ASSERT_EQ(adopted.deg_plus(v), kept.deg_plus(v)) << family.name;
    }
    for (int inserted = 0; inserted < 40;) {
      const auto u = static_cast<NodeId>(rng.next_below(g.num_nodes()));
      const auto v = static_cast<NodeId>(rng.next_below(g.num_nodes()));
      if (!g.apply({EdgeOp::kInsert, u, v})) continue;
      ++inserted;
      const std::vector<NodeId> a = kept.insert(u, v);
      ASSERT_EQ(adopted.insert(u, v), a) << family.name;
    }
    ASSERT_NO_FATAL_FAILURE(expect_valid(adopted, g, family.name));
  }
}

/// Every stored support count is a lower bound: at most the node's
/// neighbors at or above its level.
void expect_counts_bounded(const CoreOrder& order, const MutableGraph& g,
                           const std::string& context) {
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    NodeId above = 0;
    for (const NodeId w : g.neighbors(v)) {
      above += order.level(w) >= order.level(v) ? 1 : 0;
    }
    ASSERT_LE(order.count(v), above) << context << ": count of " << v;
  }
}

/// The order, copied out, passes a fresh CoreOrder::adopt certificate.
void expect_certified(const CoreOrder& order, const MutableGraph& g,
                      const std::string& context) {
  std::vector<NodeId> stored;
  order.copy_order(stored);
  CoreOrder fresh(g);
  const auto failed = fresh.adopt(levels_of(order, g.num_nodes()), stored);
  ASSERT_FALSE(failed.has_value()) << context << ": " << *failed;
}

/// Remove the edge {u,v} from `g` and the order, and check the falling
/// set, the order and the counts against a fresh bz decomposition.
void remove_and_check(CoreOrder& order, MutableGraph& g, NodeId u, NodeId v,
                      const std::string& context) {
  const std::vector<NodeId> before = levels_of(order, g.num_nodes());
  ASSERT_TRUE(g.apply({EdgeOp::kRemove, u, v})) << context;
  std::vector<NodeId> falling = order.remove(u, v);
  const std::vector<NodeId> after = seq::coreness_bz(g.snapshot());
  std::vector<NodeId> fell;
  for (NodeId w = 0; w < g.num_nodes(); ++w) {
    if (after[w] < before[w]) {
      ASSERT_EQ(after[w] + 1, before[w]) << context << ": node " << w;
      fell.push_back(w);
    }
  }
  std::sort(falling.begin(), falling.end());
  ASSERT_EQ(falling, fell) << context;
  ASSERT_NO_FATAL_FAILURE(expect_valid(order, g, context));
  ASSERT_NO_FATAL_FAILURE(expect_certified(order, g, context));
  ASSERT_NO_FATAL_FAILURE(expect_counts_bounded(order, g, context));
}

/// A random edge of `g`; g must have one.
graph::Edge random_edge(const MutableGraph& g, util::Xoshiro256& rng) {
  for (;;) {
    const auto u = static_cast<NodeId>(rng.next_below(g.num_nodes()));
    if (g.degree(u) == 0) continue;
    return {u, g.neighbors(u)[rng.next_below(g.degree(u))]};
  }
}

Graph small_union(std::uint64_t seed) {
  const std::array<Graph, 5> parts{
      gen::clique(6), gen::star(20), gen::chain(25),
      gen::erdos_renyi_gnm(60, 150, seed), Graph::from_edges(3, {})};
  return gen::disjoint_union(parts);
}

TEST(CoreOrder, RemoveKeepsExactLevelsACertifiedOrderAndBoundedCounts) {
  // Seeded runs of insert() and remove() on several families; after
  // every remove() the falling set is exactly the nodes whose coreness
  // fell, the levels are the bz coreness, the copied order passes a
  // fresh certificate, and every count stays a lower bound. Odd seeds
  // start from adopt(), whose counts are exact; even ones from build(),
  // whose counts are 0. The clique is torn down edge by edge.
  struct RemoveFamily {
    const char* name;
    Graph (*make)(std::uint64_t seed);
    double insert_fraction;
  };
  const std::array<RemoveFamily, 6> families{{
      {"ba", [](std::uint64_t seed) { return gen::barabasi_albert(150, 4, seed); }, 0.4},
      {"er", [](std::uint64_t seed) { return gen::erdos_renyi_gnm(200, 700, seed); }, 0.4},
      {"star", [](std::uint64_t) { return gen::star(60); }, 0.5},
      {"path", [](std::uint64_t) { return gen::chain(80); }, 0.5},
      {"clique teardown", [](std::uint64_t) { return gen::clique(20); }, 0.0},
      {"union", small_union, 0.4},
  }};
  std::uint64_t fallen = 0;
  for (const RemoveFamily& family : families) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      MutableGraph g(family.make(seed));
      CoreOrder order(g);
      order.build();
      if (seed % 2 == 1) {
        std::vector<NodeId> stored;
        order.copy_order(stored);
        ASSERT_FALSE(order.adopt(levels_of(order, g.num_nodes()), stored)
                         .has_value());
        for (NodeId v = 0; v < g.num_nodes(); ++v) {
          NodeId above = 0;
          for (const NodeId w : g.neighbors(v)) {
            above += order.level(w) >= order.level(v) ? 1 : 0;
          }
          ASSERT_EQ(order.count(v), above) << family.name << ": adopt";
        }
      }
      util::Xoshiro256 rng(seed * 131 + 7);
      for (int step = 0; g.num_edges() > 0 && step < 400; ++step) {
        const std::string context = std::string(family.name) + " seed " +
                                    std::to_string(seed) + " step " +
                                    std::to_string(step);
        if (rng.next_bool(family.insert_fraction)) {
          const auto u = static_cast<NodeId>(rng.next_below(g.num_nodes()));
          const auto v = static_cast<NodeId>(rng.next_below(g.num_nodes()));
          if (g.apply({EdgeOp::kInsert, u, v})) (void)order.insert(u, v);
          continue;
        }
        const graph::Edge e = random_edge(g, rng);
        const NodeId before = order.level(e.u) + order.level(e.v);
        ASSERT_NO_FATAL_FAILURE(remove_and_check(order, g, e.u, e.v, context));
        fallen += before - (order.level(e.u) + order.level(e.v));
      }
      if (family.insert_fraction == 0.0) {
        EXPECT_EQ(g.num_edges(), 0U) << family.name;
      }
    }
  }
  EXPECT_GT(fallen, 0U);
}

TEST(CoreOrder, AdoptAcceptsOnlyExactLevelsAndValidOrders) {
  // The certificate is sound: every table with a wrong entry is refused
  // whatever the order, and a shuffled order is either refused or is
  // again a valid k-order of the exact levels.
  for (const Family& family : kFamilies) {
    const MutableGraph g(family.make(7));
    CoreOrder built(g);
    built.build();
    const NodeId n = g.num_nodes();
    const std::vector<NodeId> levels = levels_of(built, n);
    std::vector<NodeId> stored;
    built.copy_order(stored);
    util::Xoshiro256 rng(53);
    std::uint64_t accepted_shuffles = 0;
    for (int trial = 0; trial < 200; ++trial) {
      const std::string context =
          std::string(family.name) + " trial " + std::to_string(trial);
      std::vector<NodeId> wrong = levels;
      const auto x = static_cast<NodeId>(rng.next_below(n));
      wrong[x] = wrong[x] == 0 || rng.next_bool(0.5) ? wrong[x] + 1
                                                       : wrong[x] - 1;
      CoreOrder refused(g);
      ASSERT_TRUE(refused.adopt(wrong, stored).has_value()) << context;

      // Swap two nodes a short distance apart in the order.
      std::vector<NodeId> shuffled = stored;
      const auto i = static_cast<NodeId>(rng.next_below(n));
      const NodeId j = std::min<NodeId>(
          n - 1, i + static_cast<NodeId>(rng.next_below(4)));
      std::swap(shuffled[i], shuffled[j]);
      CoreOrder maybe(g);
      if (!maybe.adopt(levels, shuffled).has_value()) {
        ++accepted_shuffles;
        ASSERT_NO_FATAL_FAILURE(expect_valid(maybe, g, context));
      }
    }
    EXPECT_GT(accepted_shuffles, 0U) << family.name;
  }
}

TEST(CoreOrder, AdoptNamesTheNodeAndTheCheck) {
  // K4 without the edge {2,3}: every node has coreness 2.
  const std::vector<graph::Edge> edges = {
      {0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}};
  const MutableGraph g(Graph::from_edges(4, edges));
  const auto adopt = [&g](const std::vector<NodeId>& levels,
                          const std::vector<NodeId>& order) {
    CoreOrder adopted(g);
    return adopt_result(adopted.adopt(levels, order));
  };
  EXPECT_EQ(adopt({2, 2, 2, 2}, {3, 2, 0, 1}), "adopted");
  EXPECT_NE(adopt({2, 2, 2, 2}, {3, 2, 2, 1}).find("not a permutation"),
            std::string::npos);
  EXPECT_NE(adopt({2, 2, 2, 2}, {3, 2, 0, 9}).find("not a permutation"),
            std::string::npos);
  EXPECT_EQ(adopt({1, 2, 2, 2}, {1, 0, 2, 3}),
            "node 0 at level 1 follows node 1 at level 2: levels decrease "
            "along the order");
  EXPECT_EQ(adopt({2, 2, 2, 2}, {0, 1, 2, 3}),
            "node 0 has 3 neighbors after it in the order, more than its "
            "level 2 (check b)");
  EXPECT_EQ(adopt({2, 2, 2, 3}, {2, 0, 1, 3}),
            "node 3 has 0 neighbors at level 3 or above, fewer than its "
            "level (check a)");
}

TEST(CoreOrder, CliqueLosingThreeEdgesAtOneNodeDropsThreeLevels) {
  MutableGraph g(gen::clique(6));
  CoreOrder order(g);
  order.build();
  for (const NodeId v : {1U, 2U, 3U}) {
    g.apply({EdgeOp::kRemove, 0, v});
    (void)order.remove(0, v);
    expect_valid(order, g, "clique(6) minus {0," + std::to_string(v) + "}");
  }
  EXPECT_EQ(order.level(0), 2U);
}

TEST(CoreOrder, AddNodeJoinsLevelZeroAndCanRise) {
  MutableGraph g(gen::clique(4));
  CoreOrder order(g);
  order.build();
  for (int i = 0; i < 3; ++i) {
    const NodeId x = g.add_node();
    order.add_node();
    ASSERT_EQ(x + 1, g.num_nodes());
    expect_valid(order, g, "add_node " + std::to_string(i));
  }
  // Wire node 4 into the clique: it rises one level per edge, up to 3.
  for (const NodeId v : {0U, 1U, 2U}) {
    ASSERT_TRUE(g.apply({EdgeOp::kInsert, 4, v}));
    (void)order.insert(4, v);
    expect_valid(order, g, "wire node 4 to " + std::to_string(v));
  }
  EXPECT_EQ(order.level(4), 3U);
}

TEST(OrderList, RelabelStressHundredThousandInsertionsAfterOneNode) {
  // Every insertion lands in the gap right after element 0, the worst
  // case for midpoint labels: the gap closes every ~30 insertions.
  constexpr NodeId kInserts = 100000;
  OrderList list;
  list.reset(kInserts + 1);
  list.push_back(0, 0);
  for (NodeId x = 1; x <= kInserts; ++x) list.insert_after(0, 0, x);

  NodeId expected = 0;
  NodeId prev = OrderList::kNone;
  for (NodeId x = list.head(0); x != OrderList::kNone; x = list.next(x)) {
    ASSERT_EQ(x, expected);
    if (prev != OrderList::kNone) {
      ASSERT_LT(list.label(prev), list.label(x));
    }
    prev = x;
    expected = expected == 0 ? kInserts : expected - 1;
  }
  ASSERT_EQ(prev, 1U);
  // Amortized O(log n) relabels per insertion: well under 62 (the label
  // width) each.
  EXPECT_LT(list.relabelled(), std::uint64_t{62} * kInserts);
}

// --- complexity: the probe of the search this order replaced ----------------

struct Probe {
  const char* profile;
  double max_mean_visited;  // bound on the nodes a pass visits, on average
};

TEST(CoreOrder, InsertionPassStaysLocalOnTheProbeProfiles) {
  // Scale 1, seed 1, 100 uniform non-edge inserts, each repaired and
  // checked against bz. The K-subcore search visited 35,873 nodes per
  // insert on amazon-like and 7,594 on slashdot-like for these inserts;
  // the bounds are 1% and 10% of that.
  for (const Probe& probe : {Probe{"amazon-like", 359.0},
                             Probe{"slashdot-like", 760.0}}) {
    const Graph base = eval::dataset_by_name(probe.profile).build(1.0, 1);
    MutableGraph g(base);
    live::RepairEngine engine(g, live::RepairOptions{});
    engine.initialize();
    std::vector<NodeId> before = seq::coreness_bz(base);
    util::Xoshiro256 rng(1);
    std::uint64_t visited = 0;
    constexpr int kInserts = 100;
    for (int inserted = 0; inserted < kInserts;) {
      const auto u = static_cast<NodeId>(rng.next_below(g.num_nodes()));
      const auto v = static_cast<NodeId>(rng.next_below(g.num_nodes()));
      if (!g.apply({EdgeOp::kInsert, u, v})) continue;
      ++inserted;
      engine.note_insert(u, v);
      const live::RepairStats stats = engine.repair();
      const std::vector<NodeId> after = seq::coreness_bz(g.snapshot());
      std::uint64_t rose = 0;
      for (NodeId w = 0; w < g.num_nodes(); ++w) {
        if (after[w] > before[w]) ++rose;
      }
      ASSERT_EQ(stats.raised, rose) << probe.profile << " insert " << inserted;
      visited += stats.region_visited;
      before = after;
    }
    const double mean = static_cast<double>(visited) / kInserts;
    EXPECT_LE(mean, probe.max_mean_visited) << probe.profile;
    std::cout << probe.profile << ": " << mean << " nodes visited per insert\n";
  }
}

TEST(CoreOrder, RemovalPassStaysLocalOnTheProbeProfiles) {
  // Scale 1, seed 1, 100 uniform edge removals, each repaired at one
  // worker (CoreOrder::remove) and checked against bz. A pass that
  // recounted every node of level K = min(level(u), level(v)) would visit
  // about 36,000 nodes per removal on amazon-like and 13,400 on
  // slashdot-like; the support counts keep the pass to the endpoints and
  // the nodes the falls reach (2.2 and 12.2 measured).
  for (const Probe& probe : {Probe{"amazon-like", 5.0},
                             Probe{"slashdot-like", 25.0}}) {
    const Graph base = eval::dataset_by_name(probe.profile).build(1.0, 1);
    MutableGraph g(base);
    live::RepairEngine engine(g, live::RepairOptions{});
    engine.initialize();
    std::vector<NodeId> before = seq::coreness_bz(base);
    util::Xoshiro256 rng(1);
    std::uint64_t visited = 0;
    constexpr int kRemovals = 100;
    for (int removed = 0; removed < kRemovals;) {
      const auto u = static_cast<NodeId>(rng.next_below(g.num_nodes()));
      const auto nbrs = g.neighbors(u);
      if (nbrs.empty()) continue;
      const NodeId v = nbrs[rng.next_below(nbrs.size())];
      ASSERT_TRUE(g.apply({EdgeOp::kRemove, u, v}));
      ++removed;
      engine.note_remove(u, v);
      const live::RepairStats stats = engine.repair();
      const std::vector<NodeId> after = seq::coreness_bz(g.snapshot());
      std::uint64_t fell = 0;
      for (NodeId w = 0; w < g.num_nodes(); ++w) {
        if (after[w] < before[w]) ++fell;
      }
      ASSERT_EQ(stats.dropped, fell) << probe.profile << " removal " << removed;
      ASSERT_EQ(stats.relaxations, 0U) << probe.profile << " removal " << removed;
      visited += stats.removal_visited;
      before = after;
    }
    const double mean = static_cast<double>(visited) / kRemovals;
    EXPECT_GT(visited, 0U) << probe.profile;
    EXPECT_LE(mean, probe.max_mean_visited) << probe.profile;
    std::cout << probe.profile << ": " << mean << " nodes visited per removal\n";
  }
}

}  // namespace
}  // namespace kcore::core
