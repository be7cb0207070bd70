// Executable checks of the paper's proof machinery (§4), beyond the
// headline bounds:
//  * Theorem 5 proof, observation (i):  every node of minimal degree has
//    the correct coreness from round 1 (its estimate = its degree =
//    its coreness);
//  * observation (iii): A(r) ⊆ A(r+1) — once a node's estimate is
//    correct it stays correct (follows from safety + monotonicity, but
//    we check the set inclusion directly on traces);
//  * §4.2 worst-case schedule: at most one node changes its estimate per
//    round, apart from the two final double-change rounds;
//  * Definition 1 maximality: no node outside the k-core has k neighbors
//    inside it (otherwise the core would not be maximal).
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

struct TraceCase {
  const char* name;
  Graph (*make)(std::uint64_t seed);
};

Graph tc_er(std::uint64_t s) { return gen::erdos_renyi_gnm(150, 400, s); }
Graph tc_ba(std::uint64_t s) { return gen::barabasi_albert(120, 3, s); }
Graph tc_grid(std::uint64_t) { return gen::grid(9, 11); }
Graph tc_worst(std::uint64_t) { return gen::montresor_worst_case(30); }
Graph tc_star(std::uint64_t) { return gen::star(40); }

class TheoremTrace : public ::testing::TestWithParam<TraceCase> {};

TEST_P(TheoremTrace, MinimalDegreeNodesCorrectFromRoundOne) {
  const Graph g = GetParam().make(7);
  const auto truth = seq::coreness_bz(g);
  const auto min_degree = graph::degree_summary(g).min;
  bool checked_round_one = false;
  RunOptions config;
  config.mode = sim::DeliveryMode::kSynchronous;
  config.targeted_send = false;
  const auto result = api::decompose(
      g, api::kProtocolOneToOne, config, [&](const ProgressEvent& event) {
        if (event.round != 1) return;
        const auto est = event.estimates;
        checked_round_one = true;
        for (NodeId u = 0; u < g.num_nodes(); ++u) {
          if (g.degree(u) == min_degree) {
            // Observation (i): minimal-degree nodes are in A(1).
            ASSERT_EQ(est[u], truth[u]) << GetParam().name << " node " << u;
          }
        }
      });
  ASSERT_TRUE(checked_round_one);
  ASSERT_TRUE(result.traffic.converged);
}

TEST_P(TheoremTrace, CorrectSetOnlyGrows) {
  const Graph g = GetParam().make(11);
  const auto truth = seq::coreness_bz(g);
  std::vector<bool> was_correct(g.num_nodes(), false);
  RunOptions config;
  config.seed = 5;
  const auto result = api::decompose(
      g, api::kProtocolOneToOne, config, [&](const ProgressEvent& event) {
        for (NodeId u = 0; u < g.num_nodes(); ++u) {
          const bool correct = event.estimates[u] == truth[u];
          // Observation (iii): A(r) ⊆ A(r+1).
          if (was_correct[u]) {
            ASSERT_TRUE(correct)
                << GetParam().name << " node " << u << " regressed at round "
                << event.round;
          }
          was_correct[u] = correct;
        }
      });
  ASSERT_TRUE(result.traffic.converged);
}

INSTANTIATE_TEST_SUITE_P(
    Graphs, TheoremTrace,
    ::testing::Values(TraceCase{"er", tc_er}, TraceCase{"ba", tc_ba},
                      TraceCase{"grid", tc_grid},
                      TraceCase{"worst", tc_worst},
                      TraceCase{"star", tc_star}),
    [](const auto& suite_info) { return std::string(suite_info.param.name); });

TEST(WorstCaseSchedule, AtMostOneChangePerRoundExceptFinale) {
  // §4.2: "during each round apart from the last two, at most one node
  // has changed its estimate" on the Figure 3 graph.
  const NodeId n = 20;
  const Graph g = gen::montresor_worst_case(n);
  std::vector<NodeId> previous;
  std::vector<std::size_t> changes_per_round;
  RunOptions config;
  config.mode = sim::DeliveryMode::kSynchronous;
  config.targeted_send = false;
  const auto result = api::decompose(
      g, api::kProtocolOneToOne, config, [&](const ProgressEvent& event) {
        const auto est = event.estimates;
        if (!previous.empty()) {
          std::size_t changed = 0;
          for (NodeId u = 0; u < n; ++u) {
            if (est[u] != previous[u]) ++changed;
          }
          changes_per_round.push_back(changed);
        }
        previous.assign(est.begin(), est.end());
      });
  ASSERT_TRUE(result.traffic.converged);
  // The observer misses round 1 deltas (initialization), which is fine:
  // estimates equal degrees there. Besides the chain propagation (one
  // change per round), only three rounds see a second change: the hub's
  // early drop to 3 (round 2) and the paper's "last two" rounds.
  std::size_t multi_change_rounds = 0;
  for (std::size_t r = 0; r < changes_per_round.size(); ++r) {
    if (changes_per_round[r] > 1) ++multi_change_rounds;
    EXPECT_LE(changes_per_round[r], 2U) << "round " << r + 2;
  }
  EXPECT_LE(multi_change_rounds, 3U);
}

TEST(Maximality, OutsidersLackKNeighborsInCore) {
  // Definition 1 maximality, checked structurally: if a node outside the
  // k-core had >= k neighbors inside, the core would not be maximal.
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const Graph g = gen::plant_dense_core(
        gen::erdos_renyi_gnm(200, 400, seed), 40, 8, seed + 1);
    const auto coreness = seq::coreness_bz(g);
    const auto kmax = seq::summarize_coreness(coreness).k_max;
    for (NodeId k = 1; k <= kmax; ++k) {
      for (NodeId u = 0; u < g.num_nodes(); ++u) {
        if (coreness[u] >= k) continue;
        NodeId inside = 0;
        for (const NodeId v : g.neighbors(u)) {
          if (coreness[v] >= k) ++inside;
        }
        ASSERT_LT(inside, k) << "node " << u << " violates maximality of "
                             << k << "-core (seed " << seed << ")";
      }
    }
  }
}

TEST(Concentricity, CoresAreNested) {
  // "by definition cores are concentric" (§1): the (k+1)-core is a
  // subgraph of the k-core — trivial on coreness vectors, but checked on
  // the extracted subgraphs to validate kcore_subgraph.
  const Graph g = gen::barabasi_albert(200, 4, 3);
  const auto coreness = seq::coreness_bz(g);
  const auto kmax = seq::summarize_coreness(coreness).k_max;
  std::size_t prev_size = g.num_nodes() + 1;
  for (NodeId k = 0; k <= kmax; ++k) {
    const auto sub = seq::kcore_subgraph(g, coreness, k);
    EXPECT_LE(sub.graph.num_nodes(), prev_size);
    prev_size = sub.graph.num_nodes();
    EXPECT_GT(sub.graph.num_nodes(), 0U);
  }
}

}  // namespace
}  // namespace kcore::core
