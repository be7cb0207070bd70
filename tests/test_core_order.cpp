// core::CoreOrder, the k-order behind both incremental paths.
//
//  * validity — after every insert(), every note_remove() + settle()
//    batch and every add_node(), the order is a valid k-order of the
//    current graph: levels equal bz coreness, each level's labels
//    increase along its list, the stored deg+ equals a recount of the
//    neighbors later in the order, and deg+ <= level. Rmat, G(n,m), BA
//    and cliques-plus-paths graphs, including removal batches that drop
//    a node two or more levels;
//  * insert() returns exactly the nodes whose coreness rises;
//  * the label list survives an adversarial run of insertions into one
//    gap with amortized logarithmic relabelling;
//  * complexity — the insertion pass stays local on the profiles where
//    the K-subcore search it replaced walked most of the graph.
#include "core/core_order.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <iostream>
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

TEST(CoreOrder, MixedBatchesSettleToAValidOrder) {
  // Each batch: inserts one at a time, then removes noted, then one
  // settle with the exact levels (what the downward relaxation yields).
  for (const Family& family : kFamilies) {
    MutableGraph g(family.make(11));
    CoreOrder order(g);
    order.build();
    util::Xoshiro256 rng(29);
    std::uint64_t multi_level_drops = 0;
    for (int batch = 0; batch < 40; ++batch) {
      const std::string context =
          std::string(family.name) + " batch " + std::to_string(batch);
      for (int i = 0; i < 4; ++i) {
        const auto u = static_cast<NodeId>(rng.next_below(g.num_nodes()));
        const auto v = static_cast<NodeId>(rng.next_below(g.num_nodes()));
        if (!g.apply({EdgeOp::kInsert, u, v})) continue;
        (void)order.insert(u, v);
        ASSERT_NO_FATAL_FAILURE(expect_valid(order, g, context + " insert"));
      }
      const std::vector<NodeId> before = seq::coreness_bz(g.snapshot());
      // Remove existing edges: half at random, half around one node so
      // that it loses several levels at once.
      const auto hub = static_cast<NodeId>(rng.next_below(g.num_nodes()));
      std::vector<NodeId> hub_neighbors(g.neighbors(hub).begin(),
                                        g.neighbors(hub).end());
      for (std::size_t i = 0; i < hub_neighbors.size() && i < 4; ++i) {
        g.apply({EdgeOp::kRemove, hub, hub_neighbors[i]});
        order.note_remove(hub, hub_neighbors[i]);
      }
      for (int i = 0; i < 4; ++i) {
        const auto u = static_cast<NodeId>(rng.next_below(g.num_nodes()));
        if (g.degree(u) == 0) continue;
        const NodeId v = g.neighbors(u)[rng.next_below(g.degree(u))];
        g.apply({EdgeOp::kRemove, u, v});
        order.note_remove(u, v);
      }
      const std::vector<NodeId> after = seq::coreness_bz(g.snapshot());
      for (NodeId w = 0; w < g.num_nodes(); ++w) {
        if (after[w] + 2 <= before[w]) ++multi_level_drops;
      }
      order.settle([&after](NodeId x) { return after[x]; });
      ASSERT_NO_FATAL_FAILURE(expect_valid(order, g, context));
    }
    EXPECT_GT(multi_level_drops, 0U) << family.name;
  }
}

TEST(CoreOrder, CliqueLosingThreeEdgesAtOneNodeDropsThreeLevels) {
  MutableGraph g(gen::clique(6));
  CoreOrder order(g);
  order.build();
  for (const NodeId v : {1U, 2U, 3U}) {
    g.apply({EdgeOp::kRemove, 0, v});
    order.note_remove(0, v);
  }
  const std::vector<NodeId> after = seq::coreness_bz(g.snapshot());
  ASSERT_EQ(after[0], 2U);
  order.settle([&after](NodeId x) { return after[x]; });
  expect_valid(order, g, "clique(6) minus three edges at node 0");
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
    if (prev != OrderList::kNone) ASSERT_LT(list.label(prev), list.label(x));
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
  double max_mean_visited;  // 1% / 10% of the old search's nodes per insert
};

TEST(CoreOrder, InsertionPassStaysLocalOnTheProbeProfiles) {
  // Scale 1, seed 1, 100 uniform non-edge inserts, each repaired and
  // checked against bz. The K-subcore search visited 35,873 nodes per
  // insert on amazon-like and 7,594 on slashdot-like for these inserts.
  for (const Probe& probe : {Probe{"amazon-like", 359.0},
                             Probe{"slashdot-like", 760.0}}) {
    const Graph base = eval::dataset_by_name(probe.profile).build(1.0, 1);
    MutableGraph g(base);
    live::RepairEngine engine(
        g, live::RepairOptions{1, SchedPolicy::kBound, true});
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

}  // namespace
}  // namespace kcore::core
