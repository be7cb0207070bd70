#include "graph/generators.h"

#include <gtest/gtest.h>

#include <array>
#include <limits>

#include "graph/stats.h"
#include "util/check.h"

namespace kcore::graph::gen {
namespace {

TEST(Chain, Structure) {
  const Graph g = chain(5);
  EXPECT_EQ(g.num_nodes(), 5U);
  EXPECT_EQ(g.num_edges(), 4U);
  EXPECT_EQ(g.degree(0), 1U);
  EXPECT_EQ(g.degree(2), 2U);
  EXPECT_EQ(g.degree(4), 1U);
}

TEST(Chain, SingleNode) {
  const Graph g = chain(1);
  EXPECT_EQ(g.num_nodes(), 1U);
  EXPECT_EQ(g.num_edges(), 0U);
}

TEST(Cycle, Structure) {
  const Graph g = cycle(6);
  EXPECT_EQ(g.num_edges(), 6U);
  for (NodeId u = 0; u < 6; ++u) EXPECT_EQ(g.degree(u), 2U);
  EXPECT_TRUE(g.has_edge(5, 0));
  EXPECT_THROW(cycle(2), util::CheckError);
}

TEST(Clique, Structure) {
  const Graph g = clique(7);
  EXPECT_EQ(g.num_edges(), 21U);
  for (NodeId u = 0; u < 7; ++u) EXPECT_EQ(g.degree(u), 6U);
}

TEST(Star, Structure) {
  const Graph g = star(9);
  EXPECT_EQ(g.num_edges(), 8U);
  EXPECT_EQ(g.degree(0), 8U);
  for (NodeId u = 1; u < 9; ++u) EXPECT_EQ(g.degree(u), 1U);
}

TEST(CompleteBipartite, Structure) {
  const Graph g = complete_bipartite(3, 4);
  EXPECT_EQ(g.num_nodes(), 7U);
  EXPECT_EQ(g.num_edges(), 12U);
  for (NodeId u = 0; u < 3; ++u) EXPECT_EQ(g.degree(u), 4U);
  for (NodeId u = 3; u < 7; ++u) EXPECT_EQ(g.degree(u), 3U);
  EXPECT_FALSE(g.has_edge(0, 1));  // no intra-side edges
  EXPECT_FALSE(g.has_edge(3, 4));
}

TEST(GridGen, Structure) {
  const Graph g = grid(3, 4);
  EXPECT_EQ(g.num_nodes(), 12U);
  // 3 rows x 3 horizontal + 2 x 4 vertical = 9 + 8.
  EXPECT_EQ(g.num_edges(), 17U);
  EXPECT_EQ(g.degree(0), 2U);   // corner
  EXPECT_EQ(g.degree(5), 4U);   // interior (row 1, col 1)
}

TEST(Circulant, RegularDegrees) {
  const std::array<NodeId, 2> offsets{1, 3};
  const Graph g = circulant(10, offsets);
  for (NodeId u = 0; u < 10; ++u) EXPECT_EQ(g.degree(u), 4U);
}

TEST(RingLattice, ExactlyRegular) {
  for (const NodeId d : {2U, 4U, 6U, 10U}) {
    const Graph g = ring_lattice(41, d);
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
      ASSERT_EQ(g.degree(u), d) << "d=" << d << " u=" << u;
    }
  }
  EXPECT_THROW(ring_lattice(10, 3), util::CheckError);   // odd degree
  EXPECT_THROW(ring_lattice(4, 4), util::CheckError);    // degree >= n
}

TEST(DisjointCliques, SizesAndIsolation) {
  const std::array<NodeId, 3> sizes{3, 1, 4};
  const Graph g = disjoint_cliques(sizes);
  EXPECT_EQ(g.num_nodes(), 8U);
  EXPECT_EQ(g.num_edges(), 3U + 0U + 6U);
  EXPECT_EQ(g.degree(3), 0U);             // the singleton
  EXPECT_FALSE(g.has_edge(0, 4));         // across cliques
  EXPECT_TRUE(g.has_edge(4, 7));
}

TEST(MontresorWorstCase, PaperDegreeProfile) {
  // "All nodes have degree 3, apart from the hub which has degree N-2 and
  // node 1 which has degree 2."
  for (const NodeId n : {5U, 8U, 12U, 33U}) {
    const Graph g = montresor_worst_case(n);
    EXPECT_EQ(g.num_nodes(), n);
    EXPECT_EQ(g.degree(n - 1), n - 2) << "hub, n=" << n;
    EXPECT_EQ(g.degree(0), 2U) << "node 1, n=" << n;
    for (NodeId u = 1; u + 1 < n; ++u) {
      EXPECT_EQ(g.degree(u), 3U) << "node " << u + 1 << ", n=" << n;
    }
  }
  EXPECT_THROW(montresor_worst_case(4), util::CheckError);
}

TEST(MontresorWorstCase, DiameterIsThree) {
  for (const NodeId n : {12U, 24U, 48U}) {
    EXPECT_EQ(exact_diameter(montresor_worst_case(n)), 3U) << "n=" << n;
  }
}

TEST(ErdosRenyi, ExactEdgeCount) {
  const Graph g = erdos_renyi_gnm(100, 400, 5);
  EXPECT_EQ(g.num_nodes(), 100U);
  EXPECT_EQ(g.num_edges(), 400U);
}

TEST(ErdosRenyi, DeterministicBySeed) {
  EXPECT_EQ(erdos_renyi_gnm(50, 100, 9), erdos_renyi_gnm(50, 100, 9));
  EXPECT_NE(erdos_renyi_gnm(50, 100, 9), erdos_renyi_gnm(50, 100, 10));
}

TEST(ErdosRenyi, RejectsTooManyEdges) {
  EXPECT_THROW(erdos_renyi_gnm(4, 7, 1), util::CheckError);
  EXPECT_NO_THROW(erdos_renyi_gnm(4, 6, 1));  // complete graph OK
}

TEST(BarabasiAlbert, SizesAndMinDegree) {
  const Graph g = barabasi_albert(500, 3, 21);
  EXPECT_EQ(g.num_nodes(), 500U);
  // Every non-seed node attaches with >= 3 edges (dedup can only merge
  // multi-selections, which we forbid), so min degree >= 3.
  EXPECT_GE(g.min_degree(), 3U);
  // Preferential attachment must produce a hub well above the minimum.
  EXPECT_GT(g.max_degree(), 20U);
}

TEST(BarabasiAlbert, TreeModeHasLeaves) {
  const Graph g = barabasi_albert(300, 1, 23);
  EXPECT_EQ(g.num_edges(), 299U + 0U);  // clique seed (2 nodes, 1 edge) + 298
  EXPECT_EQ(g.min_degree(), 1U);
}

TEST(Rmat, SizeAndSkew) {
  RmatParams p;
  p.scale = 10;  // 1024 nodes
  p.edge_factor = 8.0;
  const Graph g = rmat(p, 31);
  EXPECT_EQ(g.num_nodes(), 1024U);
  // Duplicates collapse, so edges < edge_factor * n but in the ballpark.
  EXPECT_GT(g.num_edges(), 4000U);
  EXPECT_LE(g.num_edges(), 8192U);
  // Skewed degree distribution: hub much larger than average.
  EXPECT_GT(g.max_degree(), 4 * static_cast<NodeId>(g.average_degree()));
}

TEST(Rmat, RejectsBadProbabilities) {
  RmatParams p;
  p.a = 0.9;
  p.b = 0.5;  // sums to > 1 with c, d
  EXPECT_THROW(rmat(p, 1), util::CheckError);
}

TEST(Rmat, RejectsAnEdgeCountThatDoesNotFit) {
  // Each value would reach an undefined double -> std::uint64_t cast.
  // All are refused before anything is allocated.
  for (const double edge_factor :
       {-1.0, std::numeric_limits<double>::quiet_NaN(),
        std::numeric_limits<double>::infinity(), 1e30}) {
    RmatParams p;
    p.scale = 30;
    p.edge_factor = edge_factor;
    EXPECT_THROW(rmat(p, 1), util::CheckError) << edge_factor;
  }
}

TEST(Rmat, RejectsAScaleOutsideOneToThirty) {
  for (const std::uint32_t scale : {0U, 31U}) {
    RmatParams p;
    p.scale = scale;
    EXPECT_THROW(rmat(p, 1), util::CheckError) << scale;
  }
}

TEST(WattsStrogatz, DegreesPreservedInExpectation) {
  const Graph g = watts_strogatz(400, 6, 0.1, 41);
  EXPECT_EQ(g.num_nodes(), 400U);
  // Rewiring keeps edge count except for rare collision-skips.
  EXPECT_GE(g.num_edges(), 1150U);
  EXPECT_LE(g.num_edges(), 1200U);
  EXPECT_NEAR(g.average_degree(), 6.0, 0.3);
}

TEST(WattsStrogatz, BetaZeroIsRingLattice) {
  EXPECT_EQ(watts_strogatz(50, 4, 0.0, 1), ring_lattice(50, 4));
}

TEST(RandomRegular, ExactlyRegularForModestDegree) {
  for (const NodeId d : {2U, 3U, 4U, 7U}) {
    const Graph g = random_regular(100, d, 51);
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
      ASSERT_EQ(g.degree(u), d) << "d=" << d;
    }
  }
}

TEST(RandomRegular, RejectsOddSum) {
  EXPECT_THROW(random_regular(5, 3, 1), util::CheckError);  // n*d odd
}

TEST(Affiliation, ProducesCliquishGraph) {
  const Graph g = affiliation(300, 60, 2, 61);
  EXPECT_EQ(g.num_nodes(), 300U);
  EXPECT_GT(g.num_edges(), 300U);  // groups of ~10 -> dense
}

TEST(DisjointUnionGen, OffsetsParts) {
  const std::array<Graph, 2> parts{clique(3), chain(4)};
  const Graph g = disjoint_union(parts);
  EXPECT_EQ(g.num_nodes(), 7U);
  EXPECT_EQ(g.num_edges(), 3U + 3U);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(3, 4));
  EXPECT_FALSE(g.has_edge(2, 3));
}

TEST(AddRandomEdges, AddsRequestedCount) {
  const Graph base = chain(100);
  const Graph g = add_random_edges(base, 50, 71);
  EXPECT_EQ(g.num_edges(), base.num_edges() + 50);
  EXPECT_EQ(g.num_nodes(), base.num_nodes());
}

TEST(AttachPaths, AddsTendrils) {
  const Graph base = clique(10);
  const Graph g = attach_paths(base, 3, 20, 81);
  EXPECT_EQ(g.num_nodes(), 10U + 60U);
  EXPECT_EQ(g.num_edges(), base.num_edges() + 60U);
  // Tendril nodes are degree <= 2.
  for (NodeId u = 10; u < g.num_nodes(); ++u) {
    EXPECT_LE(g.degree(u), 2U);
    EXPECT_GE(g.degree(u), 1U);
  }
}

TEST(PlantDenseCore, RaisesMinDegreeOfMembers) {
  const Graph base = chain(200);
  const Graph g = plant_dense_core(base, 50, 8, 91);
  EXPECT_EQ(g.num_nodes(), 200U);
  // 50 nodes receive a ring-lattice overlay of degree 8.
  NodeId with_high_degree = 0;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    if (g.degree(u) >= 8) ++with_high_degree;
  }
  EXPECT_GE(with_high_degree, 50U);
  EXPECT_THROW(plant_dense_core(base, 10, 10, 1), util::CheckError);
  EXPECT_THROW(plant_dense_core(base, 10, 3, 1), util::CheckError);
}

TEST(RelabelRandom, PreservesStructure) {
  const Graph base = erdos_renyi_gnm(100, 300, 13);
  const Graph g = relabel_random(base, 101);
  EXPECT_EQ(g.num_nodes(), base.num_nodes());
  EXPECT_EQ(g.num_edges(), base.num_edges());
  // Degree multiset preserved.
  std::vector<NodeId> d1;
  std::vector<NodeId> d2;
  for (NodeId u = 0; u < 100; ++u) {
    d1.push_back(base.degree(u));
    d2.push_back(g.degree(u));
  }
  std::sort(d1.begin(), d1.end());
  std::sort(d2.begin(), d2.end());
  EXPECT_EQ(d1, d2);
}

TEST(ConnectComponents, MakesGraphConnected) {
  const std::array<NodeId, 4> sizes{5, 5, 5, 5};
  const Graph base = disjoint_cliques(sizes);
  EXPECT_EQ(connected_components(base).num_components, 4U);
  const Graph g = connect_components(base, 111);
  EXPECT_EQ(connected_components(g).num_components, 1U);
  EXPECT_EQ(g.num_edges(), base.num_edges() + 3U);
}

TEST(ConnectComponents, NoopWhenConnected) {
  const Graph base = cycle(10);
  EXPECT_EQ(connect_components(base, 1), base);
}

}  // namespace
}  // namespace kcore::graph::gen
