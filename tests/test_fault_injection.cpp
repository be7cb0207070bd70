// Beyond-the-paper robustness: estimate updates are idempotent min-merges,
// so the protocols tolerate message delays and duplication (reliable
// channels are still assumed — nothing is dropped). These tests inject
// both faults and assert full convergence to the exact decomposition.
#include <gtest/gtest.h>

#include "api/api.h"
#include "graph/generators.h"
#include "seq/kcore_seq.h"

namespace kcore::core {
namespace {

namespace gen = kcore::graph::gen;
using graph::Graph;

api::DecomposeReport decompose_one_to_one(
    const Graph& g, const RunOptions& config,
    const ProgressObserver& observer = {}) {
  return api::decompose(g, api::kProtocolOneToOne, config, observer);
}

struct FaultCase {
  const char* name;
  std::uint32_t max_extra_delay;
  double duplicate_probability;
};

class FaultInjection : public ::testing::TestWithParam<FaultCase> {
 protected:
  sim::FaultPlan plan() const {
    sim::FaultPlan p;
    p.max_extra_delay = GetParam().max_extra_delay;
    p.duplicate_probability = GetParam().duplicate_probability;
    return p;
  }
};

TEST_P(FaultInjection, OneToOneStillExact) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const Graph g = gen::erdos_renyi_gnm(200, 500, seed);
    RunOptions config;
    config.seed = seed;
    config.faults = plan();
    const auto result = decompose_one_to_one(g, config);
    ASSERT_TRUE(result.traffic.converged) << "seed " << seed;
    EXPECT_EQ(result.coreness, seq::coreness_bz(g)) << "seed " << seed;
  }
}

TEST_P(FaultInjection, OneToOneSynchronousStillExact) {
  const Graph g = gen::montresor_worst_case(30);
  RunOptions config;
  config.mode = sim::DeliveryMode::kSynchronous;
  config.faults = plan();
  config.seed = 9;
  const auto result = decompose_one_to_one(g, config);
  ASSERT_TRUE(result.traffic.converged);
  EXPECT_EQ(result.coreness, seq::coreness_bz(g));
}

TEST_P(FaultInjection, OneToManyStillExact) {
  const Graph g = gen::barabasi_albert(200, 3, 5);
  RunOptions config;
  config.num_hosts = 8;
  config.faults = plan();
  config.seed = 11;
  const auto result = api::decompose(g, api::kProtocolOneToMany, config);
  ASSERT_TRUE(result.traffic.converged);
  EXPECT_EQ(result.coreness, seq::coreness_bz(g));
}

TEST_P(FaultInjection, SafetyHoldsUnderFaultsEveryRound) {
  const Graph g = gen::erdos_renyi_gnm(120, 300, 7);
  const auto truth = seq::coreness_bz(g);
  RunOptions config;
  config.faults = plan();
  config.seed = 13;
  const auto result =
      decompose_one_to_one(g, config, [&](const ProgressEvent& event) {
        for (graph::NodeId u = 0; u < g.num_nodes(); ++u) {
          ASSERT_GE(event.estimates[u], truth[u]) << "round " << event.round;
        }
      });
  ASSERT_TRUE(result.traffic.converged);
}

INSTANTIATE_TEST_SUITE_P(
    Plans, FaultInjection,
    ::testing::Values(FaultCase{"delay1", 1, 0.0},
                      FaultCase{"delay5", 5, 0.0},
                      FaultCase{"dup30", 0, 0.3},
                      FaultCase{"delay3_dup50", 3, 0.5}),
    [](const auto& suite_info) { return std::string(suite_info.param.name); });

TEST(FaultInjection, DelaysCanOnlySlowConvergence) {
  const Graph g = gen::grid(20, 20);
  RunOptions clean;
  clean.mode = sim::DeliveryMode::kSynchronous;
  clean.seed = 17;
  const auto baseline = decompose_one_to_one(g, clean);
  RunOptions delayed = clean;
  delayed.faults.max_extra_delay = 4;
  const auto slow = decompose_one_to_one(g, delayed);
  ASSERT_TRUE(baseline.traffic.converged);
  ASSERT_TRUE(slow.traffic.converged);
  EXPECT_GE(slow.traffic.rounds_executed, baseline.traffic.rounds_executed);
  EXPECT_EQ(slow.coreness, baseline.coreness);
}

}  // namespace
}  // namespace kcore::core
