// Additional one-to-many corner cases: degenerate partitions, more hosts
// than nodes, empty hosts, faults under both communication policies, and
// interplay between assignment and communication policy.
#include <gtest/gtest.h>

#include <algorithm>
#include <variant>

#include "api/api.h"
#include "graph/generators.h"
#include "seq/kcore_seq.h"

namespace kcore::core {
namespace {

namespace gen = kcore::graph::gen;
using graph::Graph;
using graph::NodeId;

api::DecomposeReport decompose_one_to_many(const Graph& g,
                                           const RunOptions& config) {
  return api::decompose(g, api::kProtocolOneToMany, config);
}

const api::OneToManyExtras& extras_of(const api::DecomposeReport& report) {
  return std::get<api::OneToManyExtras>(report.extras);
}

TEST(OneToManyEdge, MoreHostsThanNodes) {
  const Graph g = gen::clique(6);
  RunOptions config;
  config.num_hosts = 20;  // 14 hosts own nothing
  const auto result = decompose_one_to_many(g, config);
  ASSERT_TRUE(result.traffic.converged);
  EXPECT_EQ(result.coreness, seq::coreness_bz(g));
}

TEST(OneToManyEdge, TwoNodeGraph) {
  const Graph g = Graph::from_edges(2, std::vector<graph::Edge>{{0, 1}});
  for (const auto comm :
       {CommPolicy::kBroadcast, CommPolicy::kPointToPoint}) {
    RunOptions config;
    config.num_hosts = 2;
    config.comm = comm;
    const auto result = decompose_one_to_many(g, config);
    EXPECT_EQ(result.coreness, (std::vector<NodeId>{1, 1}));
  }
}

TEST(OneToManyEdge, AllNodesOnOneHostOfMany) {
  // Block assignment with more hosts than blocks leaves hosts empty, and
  // with 1 node per host boundary effects appear; both must be harmless.
  const Graph g = gen::cycle(7);
  RunOptions config;
  config.num_hosts = 7;
  config.assignment = AssignmentPolicy::kBlock;
  const auto result = decompose_one_to_many(g, config);
  EXPECT_EQ(result.coreness, seq::coreness_bz(g));
}

TEST(OneToManyEdge, FaultsUnderBroadcastPolicy) {
  const Graph g = gen::barabasi_albert(150, 3, 3);
  RunOptions config;
  config.num_hosts = 8;
  config.comm = CommPolicy::kBroadcast;
  config.faults.max_extra_delay = 3;
  config.faults.duplicate_probability = 0.3;
  const auto result = decompose_one_to_many(g, config);
  ASSERT_TRUE(result.traffic.converged);
  EXPECT_EQ(result.coreness, seq::coreness_bz(g));
}

TEST(OneToManyEdge, SynchronousModeAllPolicies) {
  const Graph g = gen::grid(6, 7);
  const auto truth = seq::coreness_bz(g);
  for (const auto comm :
       {CommPolicy::kBroadcast, CommPolicy::kPointToPoint}) {
    for (const auto assignment :
         {AssignmentPolicy::kModulo, AssignmentPolicy::kBlock,
          AssignmentPolicy::kRandom, AssignmentPolicy::kHash}) {
      RunOptions config;
      config.num_hosts = 6;
      config.comm = comm;
      config.assignment = assignment;
      config.mode = sim::DeliveryMode::kSynchronous;
      const auto result = decompose_one_to_many(g, config);
      ASSERT_EQ(result.coreness, truth)
          << to_string(comm) << "/" << to_string(assignment);
    }
  }
}

TEST(OneToManyEdge, BlockOnChainShipsFewEstimates) {
  // Block assignment of a chain: only the 3 host boundaries ship
  // estimates; overhead per node must be tiny compared with modulo, where
  // every single edge crosses hosts.
  const Graph g = gen::chain(400);
  RunOptions block;
  block.num_hosts = 4;
  block.assignment = AssignmentPolicy::kBlock;
  block.comm = CommPolicy::kPointToPoint;
  RunOptions modulo = block;
  modulo.assignment = AssignmentPolicy::kModulo;
  const auto rb = decompose_one_to_many(g, block);
  const auto rm = decompose_one_to_many(g, modulo);
  EXPECT_EQ(rb.coreness, rm.coreness);
  EXPECT_LT(extras_of(rb).estimates_shipped_total * 10,
            extras_of(rm).estimates_shipped_total);
}

TEST(OneToManyEdge, LastSendRoundsBoundedByExecution) {
  const Graph g = gen::erdos_renyi_gnm(200, 500, 5);
  RunOptions config;
  config.num_hosts = 8;
  const auto result = decompose_one_to_many(g, config);
  const auto& last_send = extras_of(result).last_send_round_by_host;
  for (const auto r : last_send) {
    EXPECT_LE(r, result.traffic.execution_time);
  }
  const auto max_last = *std::max_element(last_send.begin(), last_send.end());
  EXPECT_EQ(max_last, result.traffic.execution_time);
}

TEST(OneToManyEdge, EmptyGraphOfIsolatedNodes) {
  const Graph g = Graph::from_edges(9, {});
  RunOptions config;
  config.num_hosts = 3;
  const auto result = decompose_one_to_many(g, config);
  EXPECT_TRUE(result.traffic.converged);
  EXPECT_EQ(result.coreness, std::vector<NodeId>(9, 0));
  EXPECT_EQ(result.traffic.total_messages, 0U);
}

}  // namespace
}  // namespace kcore::core
