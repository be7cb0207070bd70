#include "bsp/pregel.h"

#include <gtest/gtest.h>

#include <variant>

#include "api/api.h"
#include "bsp/programs.h"
#include "core/assignment.h"
#include "graph/generators.h"
#include "graph/stats.h"
#include "seq/kcore_seq.h"

namespace kcore::bsp {
namespace {

namespace gen = kcore::graph::gen;
using graph::Graph;
using graph::NodeId;

template <typename Program>
PregelEngine<Program> make_engine(const Graph& g, WorkerId workers,
                                  Program p = Program{}) {
  auto owner = core::assign_nodes(g.num_nodes(), workers,
                                  core::AssignmentPolicy::kModulo);
  return PregelEngine<Program>(&g, std::move(owner), workers, p);
}

// ---------------------------------------------------------------------------
// Framework semantics via the stock programs
// ---------------------------------------------------------------------------

TEST(Pregel, MinLabelFindsComponents) {
  const std::array<NodeId, 3> sizes{4, 6, 3};
  const Graph g = gen::disjoint_cliques(sizes);
  auto engine = make_engine<MinLabelProgram>(g, 4);
  const auto stats = engine.run();
  EXPECT_TRUE(stats.converged);
  const auto truth = graph::connected_components(g);
  // Same partition: labels agree iff components agree.
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      EXPECT_EQ(engine.values()[u].label == engine.values()[v].label,
                truth.component_of[u] == truth.component_of[v]);
    }
  }
}

TEST(Pregel, MinLabelSuperstepsTrackDiameter) {
  const Graph g = gen::chain(40);
  auto engine = make_engine<MinLabelProgram>(g, 4);
  const auto stats = engine.run();
  EXPECT_TRUE(stats.converged);
  // Label 0 floods 39 hops: supersteps ~ diameter + constant.
  EXPECT_GE(stats.supersteps, 39U);
  EXPECT_LE(stats.supersteps, 45U);
}

TEST(Pregel, HopDistanceMatchesBfs) {
  const Graph g = gen::erdos_renyi_gnm(200, 500, 3);
  HopDistanceProgram program;
  program.source = 7;
  auto engine = make_engine<HopDistanceProgram>(g, 8, program);
  EXPECT_TRUE(engine.run().converged);
  const auto truth = graph::bfs_distances(g, 7);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    EXPECT_EQ(engine.values()[u].distance, truth[u]) << "node " << u;
  }
}

TEST(Pregel, HaltedVerticesStayHaltedWithoutMessages) {
  const Graph g = gen::clique(5);
  auto engine = make_engine<NeighborDegreeSumProgram>(g, 2);
  const auto stats = engine.run();
  EXPECT_TRUE(stats.converged);
  // init sends degrees; compute sums them once; then silence.
  for (NodeId u = 0; u < 5; ++u) {
    EXPECT_EQ(engine.values()[u].sum, 4U * 4U);
  }
  EXPECT_EQ(stats.supersteps, 2U);
}

TEST(Pregel, CombinerReducesDeliveriesNotResults) {
  const Graph g = gen::barabasi_albert(300, 3, 5);
  auto engine = make_engine<MinLabelProgram>(g, 4);
  const auto stats = engine.run();
  EXPECT_TRUE(stats.converged);
  // Emissions counted pre-combining must dominate deliveries.
  EXPECT_GT(stats.messages_emitted, stats.messages_delivered);
  EXPECT_LE(stats.messages_cross_worker, stats.messages_delivered);
}

TEST(Pregel, SuperstepCapStopsDivergentPrograms) {
  // MinLabel on a chain needs ~N supersteps; cap far below that.
  const Graph g = gen::chain(100);
  auto engine = make_engine<MinLabelProgram>(g, 2);
  const auto stats = engine.run(5);
  EXPECT_FALSE(stats.converged);
  EXPECT_EQ(stats.supersteps, 5U);
}

TEST(Pregel, RejectsMismatchedOwnerVector) {
  const Graph g = gen::clique(4);
  std::vector<WorkerId> owner(2, 0);  // wrong size
  EXPECT_THROW(PregelEngine<MinLabelProgram>(&g, owner, 1),
               util::CheckError);
}

// ---------------------------------------------------------------------------
// The k-core port, through the facade ("bsp": num_hosts = workers)
// ---------------------------------------------------------------------------

api::DecomposeReport decompose_bsp(const Graph& g, WorkerId workers,
                                   bool targeted_send = true) {
  api::RunOptions options;
  options.num_hosts = workers;
  options.targeted_send = targeted_send;
  return api::decompose(g, api::kProtocolBsp, options);
}

const BspStats& stats_of(const api::DecomposeReport& report) {
  return std::get<api::BspExtras>(report.extras).stats;
}

class PregelKCore : public ::testing::TestWithParam<WorkerId> {};

TEST_P(PregelKCore, MatchesSequentialBaseline) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const Graph g = gen::erdos_renyi_gnm(250, 600, seed);
    const auto result = decompose_bsp(g, GetParam());
    EXPECT_TRUE(stats_of(result).converged);
    EXPECT_EQ(result.coreness, seq::coreness_bz(g)) << "seed " << seed;
  }
}

TEST_P(PregelKCore, DeterministicFamilies) {
  for (const Graph& g :
       {gen::chain(30), gen::clique(10), gen::grid(7, 8),
        gen::montresor_worst_case(20), gen::star(25)}) {
    const auto result = decompose_bsp(g, GetParam());
    EXPECT_TRUE(stats_of(result).converged);
    EXPECT_EQ(result.coreness, seq::coreness_bz(g));
  }
}

INSTANTIATE_TEST_SUITE_P(Workers, PregelKCore,
                         ::testing::Values(1, 2, 8, 64));

TEST(PregelKCoreTraffic, TargetedSendSavesEmissions) {
  const Graph g = gen::barabasi_albert(400, 4, 9);
  const auto plain = decompose_bsp(g, 8, /*targeted_send=*/false);
  const auto opt = decompose_bsp(g, 8, /*targeted_send=*/true);
  EXPECT_EQ(plain.coreness, opt.coreness);
  EXPECT_LT(stats_of(opt).messages_emitted, stats_of(plain).messages_emitted);
}

TEST(PregelKCoreTraffic, SuperstepsMatchSynchronousProtocol) {
  // BSP supersteps correspond to synchronous protocol rounds: the Figure 3
  // worst case must exhibit the same linear behaviour.
  const NodeId n = 24;
  const auto result = decompose_bsp(gen::montresor_worst_case(n), 4,
                                    /*targeted_send=*/false);
  EXPECT_TRUE(stats_of(result).converged);
  EXPECT_GE(stats_of(result).supersteps, n - 2);
  EXPECT_LE(stats_of(result).supersteps, n + 1);
}

TEST(PregelKCoreTraffic, CrossWorkerTrafficShrinksWithFewerWorkers) {
  const Graph g = gen::erdos_renyi_gnm(300, 900, 11);
  const auto one = decompose_bsp(g, 1);
  const auto many = decompose_bsp(g, 64);
  EXPECT_EQ(stats_of(one).messages_cross_worker, 0U);
  EXPECT_GT(stats_of(many).messages_cross_worker, 0U);
  EXPECT_EQ(one.coreness, many.coreness);
}

}  // namespace
}  // namespace kcore::bsp
