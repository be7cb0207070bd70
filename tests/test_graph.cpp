#include "graph/graph.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "graph/generators.h"
#include "graph/mutable_graph.h"
#include "util/check.h"

namespace kcore::graph {
namespace {

TEST(Graph, EmptyGraph) {
  Graph g;
  EXPECT_EQ(g.num_nodes(), 0U);
  EXPECT_EQ(g.num_edges(), 0U);
  EXPECT_EQ(g.num_arcs(), 0U);
  EXPECT_EQ(g.min_degree(), 0U);
  EXPECT_EQ(g.max_degree(), 0U);
  EXPECT_EQ(g.average_degree(), 0.0);
}

TEST(Graph, Triangle) {
  const std::vector<Edge> edges{{0, 1}, {1, 2}, {2, 0}};
  const Graph g = Graph::from_edges(3, edges);
  EXPECT_EQ(g.num_nodes(), 3U);
  EXPECT_EQ(g.num_edges(), 3U);
  EXPECT_EQ(g.num_arcs(), 6U);
  for (NodeId u = 0; u < 3; ++u) EXPECT_EQ(g.degree(u), 2U);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 0));
  EXPECT_TRUE(g.has_edge(2, 0));
}

TEST(Graph, NeighborsAreSorted) {
  const std::vector<Edge> edges{{2, 0}, {2, 3}, {2, 1}, {2, 4}};
  const Graph g = Graph::from_edges(5, edges);
  const auto nbrs = g.neighbors(2);
  ASSERT_EQ(nbrs.size(), 4U);
  for (std::size_t i = 1; i < nbrs.size(); ++i) {
    EXPECT_LT(nbrs[i - 1], nbrs[i]);
  }
}

TEST(Graph, SelfLoopsDropped) {
  const std::vector<Edge> edges{{0, 0}, {0, 1}, {1, 1}};
  const Graph g = Graph::from_edges(2, edges);
  EXPECT_EQ(g.num_edges(), 1U);
  EXPECT_EQ(g.degree(0), 1U);
  EXPECT_EQ(g.degree(1), 1U);
  EXPECT_FALSE(g.has_edge(0, 0));
}

TEST(Graph, DuplicateEdgesCollapsed) {
  const std::vector<Edge> edges{{0, 1}, {1, 0}, {0, 1}, {0, 1}};
  const Graph g = Graph::from_edges(2, edges);
  EXPECT_EQ(g.num_edges(), 1U);
  EXPECT_EQ(g.degree(0), 1U);
}

TEST(Graph, IsolatedNodesAllowed) {
  const std::vector<Edge> edges{{0, 1}};
  const Graph g = Graph::from_edges(5, edges);
  EXPECT_EQ(g.num_nodes(), 5U);
  EXPECT_EQ(g.degree(4), 0U);
  EXPECT_TRUE(g.neighbors(4).empty());
  EXPECT_EQ(g.min_degree(), 0U);
  EXPECT_EQ(g.max_degree(), 1U);
}

TEST(Graph, FromEdgesRejectsOutOfRange) {
  const std::vector<Edge> edges{{0, 5}};
  EXPECT_THROW(Graph::from_edges(3, edges), util::CheckError);
}

TEST(Graph, HasEdgeNegativeCases) {
  const std::vector<Edge> edges{{0, 1}, {1, 2}};
  const Graph g = Graph::from_edges(4, edges);
  EXPECT_FALSE(g.has_edge(0, 2));
  EXPECT_FALSE(g.has_edge(0, 3));
  EXPECT_FALSE(g.has_edge(3, 0));
}

TEST(Graph, AverageDegree) {
  // Path on 4 nodes: degrees 1,2,2,1 -> avg 1.5.
  const std::vector<Edge> edges{{0, 1}, {1, 2}, {2, 3}};
  const Graph g = Graph::from_edges(4, edges);
  EXPECT_DOUBLE_EQ(g.average_degree(), 1.5);
}

TEST(Graph, EqualityIsStructural) {
  const std::vector<Edge> e1{{0, 1}, {1, 2}};
  const std::vector<Edge> e2{{1, 2}, {1, 0}};  // same set, different input
  EXPECT_EQ(Graph::from_edges(3, e1), Graph::from_edges(3, e2));
  const std::vector<Edge> e3{{0, 2}, {1, 2}};
  EXPECT_NE(Graph::from_edges(3, e1), Graph::from_edges(3, e3));
}

TEST(GraphBuilder, GrowsOnDemand) {
  GraphBuilder b;
  EXPECT_EQ(b.num_nodes(), 0U);
  b.add_edge(3, 7);
  EXPECT_EQ(b.num_nodes(), 8U);
  b.ensure_node(12);
  EXPECT_EQ(b.num_nodes(), 13U);
  const Graph g = b.build();
  EXPECT_EQ(g.num_nodes(), 13U);
  EXPECT_EQ(g.num_edges(), 1U);
}

TEST(GraphBuilder, BuildLeavesBuilderReusable) {
  GraphBuilder b(3);
  b.add_edge(0, 1);
  EXPECT_EQ(b.num_edges_added(), 1U);
  const Graph g1 = b.build();
  EXPECT_EQ(g1.num_edges(), 1U);
  EXPECT_EQ(b.num_edges_added(), 0U);  // edges consumed
}

TEST(GraphBuilder, LargeStarDegrees) {
  constexpr NodeId kLeaves = 10000;
  GraphBuilder b(kLeaves + 1);
  for (NodeId i = 1; i <= kLeaves; ++i) b.add_edge(0, i);
  const Graph g = b.build();
  EXPECT_EQ(g.degree(0), kLeaves);
  EXPECT_EQ(g.num_edges(), kLeaves);
  EXPECT_EQ(g.max_degree(), kLeaves);
  EXPECT_EQ(g.min_degree(), 1U);
}

TEST(MutableGraph, AppliesUpdatesAndTracksVersion) {
  MutableGraph mg(gen::cycle(4));
  EXPECT_EQ(mg.num_edges(), 4U);
  EXPECT_TRUE(mg.apply({EdgeOp::kInsert, 0, 2}));
  EXPECT_FALSE(mg.apply({EdgeOp::kInsert, 0, 2}));  // duplicate
  EXPECT_FALSE(mg.apply({EdgeOp::kInsert, 1, 1}));  // self-loop
  EXPECT_TRUE(mg.apply({EdgeOp::kRemove, 0, 1}));
  EXPECT_FALSE(mg.apply({EdgeOp::kRemove, 0, 1}));  // already gone
  EXPECT_EQ(mg.num_edges(), 4U);
  EXPECT_EQ(mg.version(), 2U);
  EXPECT_TRUE(mg.has_edge(0, 2));
  EXPECT_TRUE(mg.has_edge(2, 0));
  EXPECT_FALSE(mg.has_edge(0, 1));

  // A fresh node starts isolated and counts as a topology change.
  const NodeId fresh = mg.add_node();
  EXPECT_EQ(fresh, 4U);
  EXPECT_EQ(mg.num_nodes(), 5U);
  EXPECT_EQ(mg.degree(fresh), 0U);
  EXPECT_EQ(mg.version(), 3U);
  EXPECT_TRUE(mg.apply({EdgeOp::kInsert, fresh, 1}));

  // edges() is canonical: u < v, sorted by (u, v).
  const std::vector<Edge> expected{{0, 2}, {0, 3}, {1, 2}, {1, 4}, {2, 3}};
  EXPECT_EQ(mg.edges(), expected);
  for (NodeId u = 0; u < mg.num_nodes(); ++u) {
    const auto nbrs = mg.neighbors(u);
    EXPECT_TRUE(std::is_sorted(nbrs.begin(), nbrs.end())) << u;
  }

  // snapshot() round-trips against the immutable builder.
  const Graph snap = mg.snapshot();
  EXPECT_EQ(snap, Graph::from_edges(5, expected));
  EXPECT_EQ(MutableGraph(snap).edges(), expected);
}

}  // namespace
}  // namespace kcore::graph
