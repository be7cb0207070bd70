// §4.2/§4.3: executable verification of the complexity results.
#include "core/bounds.h"

#include <gtest/gtest.h>

#include "api/api.h"
#include "graph/generators.h"
#include "graph/stats.h"
#include "seq/kcore_seq.h"

namespace kcore::core {
namespace {

namespace gen = kcore::graph::gen;
using graph::Graph;
using graph::NodeId;

api::DecomposeReport run_analysis_model(const Graph& g) {
  // The §4 analysis model: synchronous rounds, no optimizations.
  RunOptions config;
  config.mode = sim::DeliveryMode::kSynchronous;
  config.targeted_send = false;
  auto result = api::decompose(g, api::kProtocolOneToOne, config);
  EXPECT_TRUE(result.traffic.converged);
  return result;
}

TEST(Bounds, ValuesOnKnownGraph) {
  // Star with 5 leaves: degrees {5,1,1,1,1,1}, coreness 1 everywhere.
  const Graph g = gen::star(6);
  const auto b = compute_bounds(g, seq::coreness_bz(g));
  EXPECT_EQ(b.theorem4_rounds, 1U + (5 - 1));       // only hub has error
  EXPECT_EQ(b.theorem5_rounds, 6U);
  EXPECT_EQ(b.corollary1_rounds, 6U - 5U + 1U);     // K = 5 leaves
  // Σd² = 25 + 5 = 30; 2M = 10.
  EXPECT_EQ(b.corollary2_messages, 20U);
  EXPECT_EQ(b.best_round_bound(), 2U);
}

TEST(Bounds, RejectsMismatchedCoreness) {
  const Graph g = gen::chain(4);
  EXPECT_THROW((void)compute_bounds(g, std::vector<NodeId>{1, 1}),
               util::CheckError);
  EXPECT_THROW((void)compute_bounds(g, std::vector<NodeId>{9, 9, 9, 9}),
               util::CheckError);
}

// ---------------------------------------------------------------------------
// The Figure 3 worst case: exactly N-1 rounds, diameter 3
// ---------------------------------------------------------------------------

class WorstCaseRounds : public ::testing::TestWithParam<NodeId> {};

TEST_P(WorstCaseRounds, TakesExactlyNMinusOneRounds) {
  const NodeId n = GetParam();
  const Graph g = gen::montresor_worst_case(n);
  const auto result = run_analysis_model(g);
  // §4's execution time counts through the final no-effect delivery round
  // (footnote to Theorem 5) — that is rounds_executed for a converged run.
  EXPECT_EQ(result.traffic.rounds_executed, n - 1);
  // Coreness is 2 everywhere (node 1 has degree 2 and both neighbors in
  // the 2-core), matching "nodes of minimal degree attain the correct
  // coreness at the first round".
  EXPECT_EQ(result.coreness, seq::coreness_bz(g));
}

TEST_P(WorstCaseRounds, DiameterStaysConstant) {
  // §4.2: "convergence time increases linearly with N but the diameter is
  // 3, i.e. a constant regardless of N". (For the very smallest instances
  // the hub shortcut still reaches N-3 in two hops, hence <= 3.)
  const NodeId n = GetParam();
  const auto diameter = graph::exact_diameter(gen::montresor_worst_case(n));
  if (n >= 8) {
    EXPECT_EQ(diameter, 3U);
  } else {
    EXPECT_LE(diameter, 3U);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, WorstCaseRounds,
                         ::testing::Values(6, 8, 12, 20, 33, 64, 100));

// ---------------------------------------------------------------------------
// Chains: ~N/2 rounds (§4.2: "a linear chain of size N requires ceil(N/2)")
// ---------------------------------------------------------------------------

class ChainRounds : public ::testing::TestWithParam<NodeId> {};

TEST_P(ChainRounds, TakesHalfNRounds) {
  const NodeId n = GetParam();
  const auto result = run_analysis_model(gen::chain(n));
  // ceil(N/2) counts the rounds carrying traffic (the last estimate change
  // happens in round ceil(N/2); §4.2 quotes the convergence round).
  EXPECT_EQ(result.traffic.execution_time, (n + 1) / 2);
}

INSTANTIATE_TEST_SUITE_P(Sizes, ChainRounds,
                         ::testing::Values(2, 3, 6, 7, 20, 21, 50));

// ---------------------------------------------------------------------------
// All four bounds hold on arbitrary graphs under the analysis model
// ---------------------------------------------------------------------------

struct BoundCase {
  const char* name;
  Graph (*make)(std::uint64_t seed);
};

Graph bc_er(std::uint64_t s) { return gen::erdos_renyi_gnm(150, 350, s); }
Graph bc_ba(std::uint64_t s) { return gen::barabasi_albert(120, 3, s); }
Graph bc_ws(std::uint64_t s) { return gen::watts_strogatz(100, 4, 0.3, s); }
Graph bc_grid(std::uint64_t) { return gen::grid(10, 12); }
Graph bc_worst(std::uint64_t) { return gen::montresor_worst_case(40); }
Graph bc_star(std::uint64_t) { return gen::star(60); }
Graph bc_cliques(std::uint64_t) {
  const std::array<NodeId, 3> sizes{5, 10, 20};
  return gen::disjoint_cliques(sizes);
}

class BoundsHold : public ::testing::TestWithParam<BoundCase> {};

TEST_P(BoundsHold, ExecutionTimeAndMessagesWithinBounds) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const Graph g = GetParam().make(seed);
    const auto result = run_analysis_model(g);
    const auto bounds = compute_bounds(g, result.coreness);
    // Metric subtlety (see bounds.h): Theorem 4 and Corollary 1 bound the
    // rounds that carry traffic (T, = execution_time); Theorem 5's N also
    // covers the final no-effect delivery round (T+1, = rounds_executed).
    // Star graphs make both distinctions tight.
    EXPECT_LE(result.traffic.execution_time, bounds.theorem4_rounds)
        << GetParam().name;
    EXPECT_LE(result.traffic.execution_time, bounds.corollary1_rounds)
        << GetParam().name;
    EXPECT_LE(result.traffic.rounds_executed, bounds.theorem5_rounds)
        << GetParam().name;
    EXPECT_LE(result.traffic.total_messages, bounds.corollary2_messages)
        << GetParam().name;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Graphs, BoundsHold,
    ::testing::Values(BoundCase{"er", bc_er}, BoundCase{"ba", bc_ba},
                      BoundCase{"ws", bc_ws}, BoundCase{"grid", bc_grid},
                      BoundCase{"worst", bc_worst},
                      BoundCase{"star", bc_star},
                      BoundCase{"cliques", bc_cliques}),
    [](const auto& suite_info) { return std::string(suite_info.param.name); });

TEST(BoundsTightness, WorstCaseSitsNearCorollary1) {
  // For the Fig. 3 family: K = 1 (only node 1 has degree 2), so
  // Corollary 1 gives N; the measured N-1 shows the bound is near-tight.
  const NodeId n = 30;
  const Graph g = gen::montresor_worst_case(n);
  const auto result = run_analysis_model(g);
  const auto bounds = compute_bounds(g, result.coreness);
  EXPECT_EQ(bounds.corollary1_rounds, n);  // K = 1
  EXPECT_EQ(result.traffic.rounds_executed, n - 1);
}

}  // namespace
}  // namespace kcore::core
