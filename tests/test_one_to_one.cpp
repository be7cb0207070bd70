// The one-to-one protocol (§3.1) through the facade route users get:
// api::decompose(g, "one-to-one", ...), protocol fields read from the
// report's OneToOneExtras.
#include <gtest/gtest.h>

#include <array>
#include <variant>

#include "api/api.h"
#include "core/one_to_one.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "seq/kcore_seq.h"

namespace kcore::core {
namespace {

namespace gen = kcore::graph::gen;
using graph::Graph;
using graph::NodeId;

api::DecomposeReport decompose_one_to_one(
    const Graph& g, const OneToOneConfig& config,
    const ProgressObserver& observer = {}) {
  return api::decompose(g, api::kProtocolOneToOne, config, observer);
}

const api::OneToOneExtras& extras_of(const api::DecomposeReport& report) {
  return std::get<api::OneToOneExtras>(report.extras);
}

Graph paper_figure2_graph() {
  graph::GraphBuilder b(6);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(2, 3);
  b.add_edge(3, 4);
  b.add_edge(4, 5);
  b.add_edge(1, 3);
  b.add_edge(2, 4);
  return b.build();
}

// ---------------------------------------------------------------------------
// Correctness: distributed result == sequential baseline
// ---------------------------------------------------------------------------

struct ProtocolCase {
  const char* name;
  sim::DeliveryMode mode;
  bool targeted_send;
};

class OneToOneCorrectness : public ::testing::TestWithParam<ProtocolCase> {
 protected:
  void expect_correct(const Graph& g, std::uint64_t seed = 1) {
    OneToOneConfig config;
    config.mode = GetParam().mode;
    config.targeted_send = GetParam().targeted_send;
    config.seed = seed;
    const auto result = decompose_one_to_one(g, config);
    ASSERT_TRUE(result.traffic.converged);
    EXPECT_EQ(result.coreness, seq::coreness_bz(g));
  }
};

TEST_P(OneToOneCorrectness, PaperFigure2Example) {
  expect_correct(paper_figure2_graph());
}

TEST_P(OneToOneCorrectness, DeterministicFamilies) {
  expect_correct(gen::chain(30));
  expect_correct(gen::cycle(25));
  expect_correct(gen::clique(12));
  expect_correct(gen::star(40));
  expect_correct(gen::complete_bipartite(4, 9));
  expect_correct(gen::grid(8, 9));
  expect_correct(gen::ring_lattice(30, 6));
  expect_correct(gen::montresor_worst_case(20));
}

TEST_P(OneToOneCorrectness, GraphsWithIsolatedNodes) {
  const Graph g =
      Graph::from_edges(10, std::vector<graph::Edge>{{0, 1}, {2, 3}});
  expect_correct(g);
}

TEST_P(OneToOneCorrectness, SingleNode) {
  expect_correct(Graph::from_edges(1, {}));
}

TEST_P(OneToOneCorrectness, DisconnectedCliques) {
  const std::array<NodeId, 3> sizes{4, 7, 2};
  expect_correct(gen::disjoint_cliques(sizes));
}

TEST_P(OneToOneCorrectness, RandomGraphsManySeeds) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    expect_correct(gen::erdos_renyi_gnm(200, 500, seed), seed);
    expect_correct(gen::barabasi_albert(150, 3, seed), seed);
  }
}

TEST_P(OneToOneCorrectness, SkewedAndPlantedGraphs) {
  gen::RmatParams p;
  p.scale = 9;
  p.edge_factor = 6.0;
  expect_correct(gen::rmat(p, 5));
  expect_correct(
      gen::plant_dense_core(gen::erdos_renyi_gnm(300, 400, 6), 50, 12, 7));
}

INSTANTIATE_TEST_SUITE_P(
    Modes, OneToOneCorrectness,
    ::testing::Values(
        ProtocolCase{"sync_plain", sim::DeliveryMode::kSynchronous, false},
        ProtocolCase{"sync_opt", sim::DeliveryMode::kSynchronous, true},
        ProtocolCase{"cycle_plain", sim::DeliveryMode::kCycleRandomOrder,
                     false},
        ProtocolCase{"cycle_opt", sim::DeliveryMode::kCycleRandomOrder,
                     true}),
    [](const auto& suite_info) { return std::string(suite_info.param.name); });

// ---------------------------------------------------------------------------
// The §3.1.1 walkthrough, traced round by round (synchronous mode)
// ---------------------------------------------------------------------------

TEST(OneToOneTrace, PaperWalkthroughRounds) {
  const Graph g = paper_figure2_graph();
  OneToOneConfig config;
  config.mode = sim::DeliveryMode::kSynchronous;
  config.targeted_send = false;
  std::vector<std::vector<NodeId>> trace;
  const auto result =
      decompose_one_to_one(g, config, [&](const ProgressEvent& event) {
        trace.emplace_back(event.estimates.begin(), event.estimates.end());
      });
  ASSERT_TRUE(result.traffic.converged);
  // Round 1: everyone still holds its degree.
  ASSERT_GE(trace.size(), 3U);
  EXPECT_EQ(trace[0], (std::vector<NodeId>{1, 3, 3, 3, 3, 1}));
  // Round 2: nodes 2 and 5 (indices 1, 4) saw the degree-1 endpoints.
  EXPECT_EQ(trace[1], (std::vector<NodeId>{1, 2, 3, 3, 2, 1}));
  // Round 3: nodes 3 and 4 (indices 2, 3) follow.
  EXPECT_EQ(trace[2], (std::vector<NodeId>{1, 2, 2, 2, 2, 1}));
  // Paper: "in the third round ... no local estimate changes from now on".
  EXPECT_EQ(result.coreness, (std::vector<NodeId>{1, 2, 2, 2, 2, 1}));
  // Execution time: rounds 1-3 carry traffic; round 4 is silent.
  EXPECT_EQ(result.traffic.execution_time, 3U);
}

// ---------------------------------------------------------------------------
// Safety (Theorem 2) and monotonicity, instrumented every round
// ---------------------------------------------------------------------------

TEST(OneToOneInvariants, EstimatesAreSafeAndMonotone) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const Graph g = gen::barabasi_albert(120, 3, seed);
    const auto truth = seq::coreness_bz(g);
    OneToOneConfig config;
    config.seed = seed;
    std::vector<NodeId> previous(g.num_nodes(), kEstimateInfinity);
    const auto result =
        decompose_one_to_one(g, config, [&](const ProgressEvent& event) {
          const auto est = event.estimates;
          for (NodeId u = 0; u < g.num_nodes(); ++u) {
            // Theorem 2: estimate never below true coreness.
            ASSERT_GE(est[u], truth[u])
                << "round " << event.round << " node " << u;
            // By construction: estimates never increase.
            ASSERT_LE(est[u], previous[u])
                << "round " << event.round << " node " << u;
            previous[u] = est[u];
          }
        });
    ASSERT_TRUE(result.traffic.converged);
  }
}

// ---------------------------------------------------------------------------
// Traffic accounting and the §3.1.2 optimization
// ---------------------------------------------------------------------------

TEST(OneToOneTraffic, FirstRoundBroadcastsDegreeToAll) {
  const Graph g = gen::clique(8);
  OneToOneConfig config;
  config.mode = sim::DeliveryMode::kSynchronous;
  config.targeted_send = false;
  const auto result = decompose_one_to_one(g, config);
  // A clique is immediately stable: the only traffic is the initial
  // broadcast (each node to its 7 neighbors), counted as 1 round.
  EXPECT_EQ(result.traffic.execution_time, 1U);
  EXPECT_EQ(result.traffic.total_messages, 8U * 7U);
}

TEST(OneToOneTraffic, TargetedSendReducesMessages) {
  // The paper reports ~50% message savings on real graphs (§3.1.2).
  const Graph g = gen::barabasi_albert(400, 4, 9);
  std::uint64_t plain = 0;
  std::uint64_t optimized = 0;
  {
    OneToOneConfig config;
    config.mode = sim::DeliveryMode::kSynchronous;
    config.targeted_send = false;
    plain = decompose_one_to_one(g, config).traffic.total_messages;
  }
  {
    OneToOneConfig config;
    config.mode = sim::DeliveryMode::kSynchronous;
    config.targeted_send = true;
    optimized = decompose_one_to_one(g, config).traffic.total_messages;
  }
  EXPECT_LT(optimized, plain);
  EXPECT_LT(static_cast<double>(optimized), 0.8 * static_cast<double>(plain));
}

TEST(OneToOneTraffic, PerNodeCountsSumToTotal) {
  const Graph g = gen::erdos_renyi_gnm(100, 250, 3);
  OneToOneConfig config;
  const auto result = decompose_one_to_one(g, config);
  std::uint64_t sum = 0;
  for (const auto s : result.traffic.sent_by_host) sum += s;
  EXPECT_EQ(sum, result.traffic.total_messages);
}

TEST(OneToOneTraffic, CycleModeVariesAcrossSeeds) {
  // The paper's t_min/t_max spread over 50 runs comes from the random
  // processing order; different seeds should occasionally differ.
  const Graph g = gen::erdos_renyi_gnm(300, 700, 4);
  std::uint64_t min_t = ~0ULL;
  std::uint64_t max_t = 0;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    OneToOneConfig config;
    config.seed = seed;
    const auto t = decompose_one_to_one(g, config).traffic.execution_time;
    min_t = std::min(min_t, t);
    max_t = std::max(max_t, t);
  }
  EXPECT_LT(min_t, max_t);
}

TEST(OneToOneTraffic, DeterministicForSeed) {
  const Graph g = gen::barabasi_albert(200, 3, 5);
  OneToOneConfig config;
  config.seed = 77;
  const auto a = decompose_one_to_one(g, config);
  const auto b = decompose_one_to_one(g, config);
  EXPECT_EQ(a.coreness, b.coreness);
  EXPECT_EQ(a.traffic.execution_time, b.traffic.execution_time);
  EXPECT_EQ(a.traffic.total_messages, b.traffic.total_messages);
}

TEST(OneToOneTraffic, LastSendRoundsAreConsistent) {
  const Graph g = gen::erdos_renyi_gnm(150, 400, 8);
  OneToOneConfig config;
  const auto result = decompose_one_to_one(g, config);
  std::uint64_t max_last = 0;
  for (const auto r : extras_of(result).last_send_round) {
    max_last = std::max(max_last, r);
  }
  EXPECT_EQ(max_last, result.traffic.execution_time);
}

// ---------------------------------------------------------------------------
// Fixed-round cap behaviour (termination option 3)
// ---------------------------------------------------------------------------

TEST(OneToOneCap, UnconvergedRunStillSafe) {
  const Graph g = gen::grid(40, 40);  // needs many rounds
  const auto truth = seq::coreness_bz(g);
  OneToOneConfig config;
  config.max_rounds = 3;
  const auto result = decompose_one_to_one(g, config);
  EXPECT_FALSE(result.traffic.converged);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    EXPECT_GE(result.coreness[u], truth[u]);
  }
}

}  // namespace
}  // namespace kcore::core
