#include "core/termination.h"

#include <gtest/gtest.h>

#include <variant>

#include "api/api.h"
#include "core/one_to_one.h"
#include "graph/generators.h"
#include "seq/kcore_seq.h"

namespace kcore::core {
namespace {

namespace gen = kcore::graph::gen;
using graph::Graph;
using graph::NodeId;

/// Per-node active<->quiet flips of a one-to-one run.
std::vector<std::uint64_t> activity_transitions(
    const api::DecomposeReport& run) {
  return std::get<api::OneToOneExtras>(run.extras).activity_transitions;
}

TEST(ApproximateCoreness, ErrorIsMonotoneInRounds) {
  const Graph g = gen::grid(30, 30);
  OneToOneConfig config;
  config.seed = 3;
  double prev_avg = 1e18;
  for (const std::uint64_t rounds : {1ULL, 3ULL, 8ULL, 20ULL, 60ULL}) {
    const auto approx = approximate_coreness(g, rounds, config);
    EXPECT_LE(approx.avg_error, prev_avg) << rounds << " rounds";
    prev_avg = approx.avg_error;
  }
}

TEST(ApproximateCoreness, ConvergesToExact) {
  const Graph g = gen::erdos_renyi_gnm(200, 500, 5);
  OneToOneConfig config;
  // Theorem 5: N rounds always suffice.
  const auto approx = approximate_coreness(g, g.num_nodes() + 1, config);
  EXPECT_EQ(approx.avg_error, 0.0);
  EXPECT_EQ(approx.max_error, 0U);
  EXPECT_EQ(approx.fraction_exact, 1.0);
  EXPECT_EQ(approx.estimates, seq::coreness_bz(g));
}

TEST(ApproximateCoreness, EarlyStopsAreUsableApproximations) {
  // §5.1: after very few rounds the error is already low. With 10 rounds
  // on a 400-node BA graph most nodes must be exact.
  const Graph g = gen::barabasi_albert(400, 3, 7);
  OneToOneConfig config;
  const auto approx = approximate_coreness(g, 10, config);
  EXPECT_GT(approx.fraction_exact, 0.8);
}

TEST(ApproximateCoreness, RejectsZeroRounds) {
  const Graph g = gen::chain(5);
  OneToOneConfig config;
  EXPECT_THROW(approximate_coreness(g, 0, config), util::CheckError);
}

TEST(CentralizedDetector, DetectsRightAfterLastTraffic) {
  const Graph g = gen::erdos_renyi_gnm(150, 400, 9);
  OneToOneConfig config;
  const auto run = api::decompose(g, api::kProtocolOneToOne, config);
  ASSERT_TRUE(run.traffic.converged);
  const auto detection = centralized_termination(
      run.traffic.execution_time, activity_transitions(run));
  EXPECT_EQ(detection.detection_round, run.traffic.execution_time + 1);
  // Every node that ever sent generated at least 2 transitions
  // (quiet -> active -> quiet), and none more than 2 per active burst.
  EXPECT_GE(detection.control_messages, g.num_nodes());
  std::uint64_t total_sends = run.traffic.total_messages;
  EXPECT_LE(detection.control_messages, 2 * total_sends + g.num_nodes());
}

TEST(CentralizedDetector, TransitionsAreEven) {
  // A run that terminates leaves every node quiet: transitions per node
  // must be even (each active burst opens and closes).
  const Graph g = gen::barabasi_albert(100, 2, 11);
  OneToOneConfig config;
  const auto run = api::decompose(g, api::kProtocolOneToOne, config);
  ASSERT_TRUE(run.traffic.converged);
  const auto transitions = activity_transitions(run);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    EXPECT_EQ(transitions[u] % 2, 0U) << "node " << u;
  }
}

TEST(CentralizedDetector, QuietNodesCostNothing) {
  // Isolated nodes never send and never flip status.
  const Graph g = Graph::from_edges(5, std::vector<graph::Edge>{{0, 1}});
  OneToOneConfig config;
  const auto run = api::decompose(g, api::kProtocolOneToOne, config);
  const auto transitions = activity_transitions(run);
  for (NodeId u = 2; u < 5; ++u) {
    EXPECT_EQ(transitions[u], 0U);
  }
}

}  // namespace
}  // namespace kcore::core
