#include "graph/edge_list.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <sstream>

#include "graph/generators.h"
#include "util/check.h"

namespace kcore::graph {
namespace {

TEST(EdgeList, ParsesSimpleInput) {
  std::istringstream in("0 1\n1 2\n2 0\n");
  const auto loaded = read_edge_list(in);
  EXPECT_EQ(loaded.graph.num_nodes(), 3U);
  EXPECT_EQ(loaded.graph.num_edges(), 3U);
}

TEST(EdgeList, SkipsCommentsAndBlankLines) {
  std::istringstream in(
      "# SNAP-style comment\n"
      "% matrix-market-style comment\n"
      "\n"
      "0 1\n"
      "   \t  \n"
      "1 2\n");
  const auto loaded = read_edge_list(in);
  EXPECT_EQ(loaded.graph.num_edges(), 2U);
}

TEST(EdgeList, RemapsSparseIds) {
  std::istringstream in("100 200\n200 4700\n");
  const auto loaded = read_edge_list(in);
  EXPECT_EQ(loaded.graph.num_nodes(), 3U);
  ASSERT_EQ(loaded.original_ids.size(), 3U);
  EXPECT_EQ(loaded.original_ids[0], 100U);
  EXPECT_EQ(loaded.original_ids[1], 200U);
  EXPECT_EQ(loaded.original_ids[2], 4700U);
  EXPECT_TRUE(loaded.graph.has_edge(0, 1));
  EXPECT_TRUE(loaded.graph.has_edge(1, 2));
  EXPECT_FALSE(loaded.graph.has_edge(0, 2));
}

TEST(EdgeList, RejectsMalformedLine) {
  std::istringstream in("0 1\nnot-an-edge\n");
  EXPECT_THROW(read_edge_list(in), util::IoError);
}

TEST(EdgeList, RejectsHalfEdge) {
  std::istringstream in("0\n");
  EXPECT_THROW(read_edge_list(in), util::IoError);
}

TEST(EdgeList, EmptyInputYieldsEmptyGraph) {
  std::istringstream in("# nothing\n");
  const auto loaded = read_edge_list(in);
  EXPECT_EQ(loaded.graph.num_edges(), 0U);
}

// ---------------------------------------------------------------------------
// Timestamped edge streams (t op u v)
// ---------------------------------------------------------------------------

TEST(EdgeStream, ParsesOpsCommentsAndBlankLines) {
  std::istringstream in(
      "# churn trace\n"
      "0 + 1 2\n"
      "\n"
      "% another comment\n"
      "0 - 3 4\n"
      "5 + 2 3\n");
  const EdgeStream stream = read_edge_stream(in);
  ASSERT_EQ(stream.events.size(), 3U);
  EXPECT_EQ(stream.events[0],
            (TimedEdgeUpdate{0, {EdgeOp::kInsert, 1, 2}}));
  EXPECT_EQ(stream.events[1],
            (TimedEdgeUpdate{0, {EdgeOp::kRemove, 3, 4}}));
  EXPECT_EQ(stream.events[2],
            (TimedEdgeUpdate{5, {EdgeOp::kInsert, 2, 3}}));
}

TEST(EdgeStream, RejectsMalformedInput) {
  {
    std::istringstream in("0 + 1\n");  // missing endpoint
    EXPECT_THROW(read_edge_stream(in), util::IoError);
  }
  {
    std::istringstream in("0 * 1 2\n");  // unknown op
    EXPECT_THROW(read_edge_stream(in), util::IoError);
  }
  {
    std::istringstream in("5 + 1 2\n3 - 1 2\n");  // time goes backwards
    EXPECT_THROW(read_edge_stream(in), util::IoError);
  }
  {
    std::istringstream in("not-a-stream\n");
    EXPECT_THROW(read_edge_stream(in), util::IoError);
  }
}

TEST(EdgeStream, RoundTripsThroughWriteAndRead) {
  EdgeStream original;
  original.events = {{0, {EdgeOp::kInsert, 0, 1}},
                     {0, {EdgeOp::kInsert, 1, 2}},
                     {3, {EdgeOp::kRemove, 0, 1}},
                     {7, {EdgeOp::kInsert, 4, 0}}};
  std::ostringstream out;
  write_edge_stream(out, original);
  std::istringstream in(out.str());
  const EdgeStream reread = read_edge_stream(in);
  EXPECT_EQ(reread.events, original.events);
}

TEST(EdgeStream, BatchByWindowGroupsByTickRange) {
  EdgeStream stream;
  stream.events = {{0, {EdgeOp::kInsert, 0, 1}},
                   {4, {EdgeOp::kInsert, 1, 2}},
                   {5, {EdgeOp::kRemove, 0, 1}},
                   {17, {EdgeOp::kInsert, 2, 3}}};
  const auto batches = batch_by_window(stream, 5);
  ASSERT_EQ(batches.size(), 3U);  // [0,5), [5,10), [15,20) — empty skipped
  EXPECT_EQ(batches[0].t_begin, 0U);
  EXPECT_EQ(batches[0].t_end, 5U);
  EXPECT_EQ(batches[0].updates.size(), 2U);
  EXPECT_EQ(batches[1].updates.size(), 1U);
  EXPECT_EQ(batches[2].t_begin, 15U);
  EXPECT_EQ(batches[2].updates.size(), 1U);
}

TEST(EdgeStream, BatchByZeroWindowSplitsPerTimestamp) {
  EdgeStream stream;
  stream.events = {{2, {EdgeOp::kInsert, 0, 1}},
                   {2, {EdgeOp::kInsert, 1, 2}},
                   {9, {EdgeOp::kRemove, 0, 1}}};
  const auto batches = batch_by_window(stream, 0);
  ASSERT_EQ(batches.size(), 2U);
  EXPECT_EQ(batches[0].updates.size(), 2U);
  EXPECT_EQ(batches[1].updates.size(), 1U);
  EXPECT_EQ(batches[1].t_begin, 9U);
}

TEST(EdgeStream, WindowsAnchorAtFirstEvent) {
  // A stream starting at t=1000 must not emit empty leading windows.
  EdgeStream stream;
  stream.events = {{1000, {EdgeOp::kInsert, 0, 1}},
                   {1009, {EdgeOp::kInsert, 1, 2}}};
  const auto batches = batch_by_window(stream, 10);
  ASSERT_EQ(batches.size(), 1U);
  EXPECT_EQ(batches[0].t_begin, 1000U);
  EXPECT_EQ(batches[0].updates.size(), 2U);
}

TEST(EdgeStream, BatchByWindowTerminatesAtTheLastTimestamp) {
  // Near UINT64_MAX, t + 1 and t_begin + window wrap; batching must still
  // take every event exactly once and stop.
  constexpr std::uint64_t kMax = UINT64_MAX;
  EdgeStream stream;
  stream.events = {{kMax - 1, {EdgeOp::kInsert, 0, 1}},
                   {kMax, {EdgeOp::kInsert, 1, 2}},
                   {kMax, {EdgeOp::kRemove, 0, 1}}};
  const auto per_tick = batch_by_window(stream, 0);
  ASSERT_EQ(per_tick.size(), 2U);
  EXPECT_EQ(per_tick[0].updates.size(), 1U);
  EXPECT_EQ(per_tick[0].t_end, kMax);
  EXPECT_EQ(per_tick[1].t_begin, kMax);
  EXPECT_EQ(per_tick[1].t_end, kMax);  // saturated
  EXPECT_EQ(per_tick[1].updates.size(), 2U);

  const auto windowed = batch_by_window(stream, 10);
  ASSERT_EQ(windowed.size(), 1U);
  EXPECT_EQ(windowed[0].t_begin, kMax - 1);
  EXPECT_EQ(windowed[0].t_end, kMax);
  EXPECT_EQ(windowed[0].updates.size(), 3U);

  EdgeStream single;
  single.events = {{kMax, {EdgeOp::kInsert, 0, 1}}};
  for (const std::uint64_t window : {0U, 10U}) {
    const auto batches = batch_by_window(single, window);
    ASSERT_EQ(batches.size(), 1U) << window;
    EXPECT_EQ(batches[0].updates.size(), 1U) << window;
  }
}

TEST(Coalesce, KeepsOnlyTheNetEffectAndCountsEveryUpdate) {
  // Current topology on 5 nodes: {0,1} and {2,3}.
  const auto has_edge = [](NodeId u, NodeId v) {
    EXPECT_LT(u, v);
    return (u == 0 && v == 1) || (u == 2 && v == 3);
  };
  const std::vector<EdgeUpdate> batch{
      {EdgeOp::kInsert, 3, 4},  // last op wins: net insert {3,4}
      {EdgeOp::kRemove, 4, 3},
      {EdgeOp::kInsert, 4, 3},
      {EdgeOp::kInsert, 1, 2},  // insert then remove of an absent edge
      {EdgeOp::kRemove, 2, 1},
      {EdgeOp::kInsert, 1, 0},  // duplicate insert of a present edge
      {EdgeOp::kRemove, 3, 2},  // net remove {2,3}
      {EdgeOp::kRemove, 0, 4},  // remove of an absent edge
      {EdgeOp::kInsert, 2, 2},  // self-loop
      {EdgeOp::kInsert, 0, 5},  // out of range
      {EdgeOp::kRemove, 7, 1},  // out of range
      {EdgeOp::kInsert, 2, 0},  // net insert {0,2}
  };
  const NetUpdates net = coalesce(batch, 5, has_edge);
  EXPECT_EQ(net.inserts, (std::vector<Edge>{{0, 2}, {3, 4}}));
  EXPECT_EQ(net.removes, (std::vector<Edge>{{2, 3}}));
  EXPECT_EQ(net.rejected, 2U);
  EXPECT_EQ(net.ignored, 7U);
}

TEST(EdgeList, WriteReadRoundtrip) {
  const Graph original = gen::erdos_renyi_gnm(200, 600, 17);
  std::stringstream buffer;
  write_edge_list(buffer, original);
  const auto loaded = read_edge_list(buffer);
  // The loader interns ids in order of appearance, so node ids come back
  // permuted; original_ids provides the inverse mapping. The graphs must
  // be isomorphic under it.
  EXPECT_EQ(loaded.graph.num_edges(), original.num_edges());
  std::vector<NodeId> dense_of(original.num_nodes(), kInvalidNode);
  for (NodeId dense = 0; dense < loaded.graph.num_nodes(); ++dense) {
    dense_of[loaded.original_ids[dense]] = dense;
  }
  for (NodeId u = 0; u < original.num_nodes(); ++u) {
    for (NodeId v : original.neighbors(u)) {
      if (u < v) {
        ASSERT_NE(dense_of[u], kInvalidNode);
        ASSERT_NE(dense_of[v], kInvalidNode);
        EXPECT_TRUE(loaded.graph.has_edge(dense_of[u], dense_of[v]))
            << "missing edge " << u << "-" << v;
      }
    }
  }
}

TEST(EdgeList, DuplicatesCollapseOnLoad) {
  std::istringstream in("0 1\n1 0\n0 1\n");
  const auto loaded = read_edge_list(in);
  EXPECT_EQ(loaded.graph.num_edges(), 1U);
}

TEST(EdgeList, FileRoundtrip) {
  const Graph original = gen::clique(10);
  const std::string path = ::testing::TempDir() + "/kcore_edge_list_test.txt";
  write_edge_list_file(path, original);
  const auto loaded = read_edge_list_file(path);
  EXPECT_EQ(loaded.graph.num_edges(), original.num_edges());
  EXPECT_EQ(loaded.graph.num_nodes(), original.num_nodes());
}

TEST(EdgeList, MissingFileThrows) {
  EXPECT_THROW(read_edge_list_file("/nonexistent/path/nope.txt"),
               util::IoError);
}

TEST(EdgeStream, ParseErrorsNameSourceAndLine) {
  // The satellite contract: a bad stream line surfaces as ONE
  // user-facing diagnostic carrying the source name and line number —
  // what `kcore stream` prints verbatim before exiting.
  std::istringstream in("0 + 1 2\n1 * 3 4\n");
  try {
    read_edge_stream(in, "churn.txt");
    FAIL() << "expected util::IoError";
  } catch (const util::IoError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("churn.txt"), std::string::npos) << what;
    EXPECT_NE(what.find("line 2"), std::string::npos) << what;
    EXPECT_NE(what.find("'*'"), std::string::npos) << what;
  }
}

TEST(EdgeStream, FileParseErrorsNameThePath) {
  const std::string path = ::testing::TempDir() + "/kcore_bad_stream.txt";
  {
    std::ofstream out(path);
    out << "0 + 1 2\n5 - 1\n";
  }
  try {
    (void)read_edge_stream_file(path);
    FAIL() << "expected util::IoError";
  } catch (const util::IoError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(path), std::string::npos) << what;
    EXPECT_NE(what.find("line 2"), std::string::npos) << what;
  }
}

}  // namespace
}  // namespace kcore::graph
