// The one-to-many protocol (§3.2) through the facade route users get:
// api::decompose(g, "one-to-many", ...), protocol fields read from the
// report's OneToManyExtras. The host-state test builds hosts directly.
#include "core/one_to_many.h"

#include <gtest/gtest.h>

#include <array>
#include <variant>

#include "api/api.h"
#include "graph/generators.h"
#include "seq/kcore_seq.h"

namespace kcore::core {
namespace {

namespace gen = kcore::graph::gen;
using graph::Graph;
using graph::NodeId;

api::DecomposeReport decompose_one_to_many(
    const Graph& g, const OneToManyConfig& config,
    const ProgressObserver& observer = {}) {
  return api::decompose(g, api::kProtocolOneToMany, config, observer);
}

const api::OneToManyExtras& extras_of(const api::DecomposeReport& report) {
  return std::get<api::OneToManyExtras>(report.extras);
}

// ---------------------------------------------------------------------------
// Correctness across host counts, policies, and assignments
// ---------------------------------------------------------------------------

struct OneToManyCase {
  const char* name;
  sim::HostId hosts;
  CommPolicy comm;
  AssignmentPolicy assignment;
};

class OneToManyCorrectness
    : public ::testing::TestWithParam<OneToManyCase> {
 protected:
  void expect_correct(const Graph& g, std::uint64_t seed = 1) {
    OneToManyConfig config;
    config.num_hosts = GetParam().hosts;
    config.comm = GetParam().comm;
    config.assignment = GetParam().assignment;
    config.seed = seed;
    const auto result = decompose_one_to_many(g, config);
    ASSERT_TRUE(result.traffic.converged);
    EXPECT_EQ(result.coreness, seq::coreness_bz(g)) << GetParam().name;
  }
};

TEST_P(OneToManyCorrectness, DeterministicFamilies) {
  expect_correct(gen::chain(40));
  expect_correct(gen::clique(15));
  expect_correct(gen::grid(9, 11));
  expect_correct(gen::montresor_worst_case(25));
  expect_correct(gen::complete_bipartite(5, 12));
}

TEST_P(OneToManyCorrectness, RandomGraphs) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    expect_correct(gen::erdos_renyi_gnm(250, 600, seed), seed);
    expect_correct(gen::barabasi_albert(180, 3, seed), seed);
  }
}

TEST_P(OneToManyCorrectness, GraphWithIsolatedNodes) {
  expect_correct(
      Graph::from_edges(12, std::vector<graph::Edge>{{0, 1}, {5, 9}}));
}

INSTANTIATE_TEST_SUITE_P(
    Configs, OneToManyCorrectness,
    ::testing::Values(
        OneToManyCase{"h1_bcast_mod", 1, CommPolicy::kBroadcast,
                      AssignmentPolicy::kModulo},
        OneToManyCase{"h2_p2p_mod", 2, CommPolicy::kPointToPoint,
                      AssignmentPolicy::kModulo},
        OneToManyCase{"h4_bcast_mod", 4, CommPolicy::kBroadcast,
                      AssignmentPolicy::kModulo},
        OneToManyCase{"h4_p2p_block", 4, CommPolicy::kPointToPoint,
                      AssignmentPolicy::kBlock},
        OneToManyCase{"h8_p2p_rand", 8, CommPolicy::kPointToPoint,
                      AssignmentPolicy::kRandom},
        OneToManyCase{"h8_bcast_hash", 8, CommPolicy::kBroadcast,
                      AssignmentPolicy::kHash},
        OneToManyCase{"h16_p2p_mod", 16, CommPolicy::kPointToPoint,
                      AssignmentPolicy::kModulo},
        OneToManyCase{"h64_p2p_mod", 64, CommPolicy::kPointToPoint,
                      AssignmentPolicy::kModulo}),
    [](const auto& suite_info) { return std::string(suite_info.param.name); });

// ---------------------------------------------------------------------------
// The one-to-one protocol is the |H| = N special case (§1)
// ---------------------------------------------------------------------------

TEST(OneToManySpecialCases, OneHostPerNodeMatchesOneToOne) {
  const Graph g = gen::erdos_renyi_gnm(120, 300, 9);
  OneToManyConfig config;
  config.num_hosts = g.num_nodes();
  config.comm = CommPolicy::kPointToPoint;
  const auto many = decompose_one_to_many(g, config);
  ASSERT_TRUE(many.traffic.converged);
  EXPECT_EQ(many.coreness, seq::coreness_bz(g));
}

TEST(OneToManySpecialCases, SingleHostComputesLocallyWithZeroTraffic) {
  const Graph g = gen::barabasi_albert(200, 3, 11);
  OneToManyConfig config;
  config.num_hosts = 1;
  const auto result = decompose_one_to_many(g, config);
  ASSERT_TRUE(result.traffic.converged);
  EXPECT_EQ(result.coreness, seq::coreness_bz(g));
  // improveEstimate reaches the global fixed point in the constructor;
  // there is nobody to talk to.
  EXPECT_EQ(result.traffic.total_messages, 0U);
  EXPECT_EQ(extras_of(result).estimates_shipped_total, 0U);
  EXPECT_EQ(extras_of(result).overhead_per_node, 0.0);
}

// ---------------------------------------------------------------------------
// Overhead accounting (the Figure 5 metric)
// ---------------------------------------------------------------------------

TEST(OneToManyOverhead, BroadcastShipsFewerEstimatesThanP2P) {
  const Graph g = gen::barabasi_albert(300, 4, 13);
  for (const sim::HostId hosts : {4U, 16U, 64U}) {
    OneToManyConfig bcast;
    bcast.num_hosts = hosts;
    bcast.comm = CommPolicy::kBroadcast;
    OneToManyConfig p2p = bcast;
    p2p.comm = CommPolicy::kPointToPoint;
    const auto rb = decompose_one_to_many(g, bcast);
    const auto rp = decompose_one_to_many(g, p2p);
    EXPECT_LE(extras_of(rb).estimates_shipped_total,
              extras_of(rp).estimates_shipped_total)
        << hosts << " hosts";
  }
}

TEST(OneToManyOverhead, P2POverheadGrowsWithHosts) {
  // Figure 5 (right): more hosts => each update fans out to more
  // destinations => overhead per node increases.
  const Graph g = gen::erdos_renyi_gnm(400, 1200, 15);
  double prev = 0.0;
  for (const sim::HostId hosts : {2U, 8U, 64U}) {
    OneToManyConfig config;
    config.num_hosts = hosts;
    config.comm = CommPolicy::kPointToPoint;
    const auto r = decompose_one_to_many(g, config);
    EXPECT_GE(extras_of(r).overhead_per_node, prev) << hosts << " hosts";
    prev = extras_of(r).overhead_per_node;
  }
}

TEST(OneToManyOverhead, PerHostCountsSumToTotal) {
  const Graph g = gen::barabasi_albert(150, 3, 17);
  OneToManyConfig config;
  config.num_hosts = 8;
  const auto report = decompose_one_to_many(g, config);
  const auto& r = extras_of(report);
  std::uint64_t sum = 0;
  for (const auto v : r.estimates_shipped_by_host) sum += v;
  EXPECT_EQ(sum, r.estimates_shipped_total);
  EXPECT_DOUBLE_EQ(
      r.overhead_per_node,
      static_cast<double>(sum) / static_cast<double>(g.num_nodes()));
}

// ---------------------------------------------------------------------------
// Observer and snapshots
// ---------------------------------------------------------------------------

TEST(OneToManyObserver, SnapshotsAreSafeAndMonotone) {
  const Graph g = gen::erdos_renyi_gnm(150, 400, 19);
  const auto truth = seq::coreness_bz(g);
  OneToManyConfig config;
  config.num_hosts = 8;
  std::vector<NodeId> previous(g.num_nodes(), kEstimateInfinity);
  const auto result =
      decompose_one_to_many(g, config, [&](const ProgressEvent& event) {
        const auto est = event.estimates;
        for (NodeId u = 0; u < g.num_nodes(); ++u) {
          ASSERT_GE(est[u], truth[u]) << "round " << event.round;
          ASSERT_LE(est[u], previous[u]) << "round " << event.round;
          previous[u] = est[u];
        }
      });
  ASSERT_TRUE(result.traffic.converged);
}

TEST(OneToManyHostState, OwnedNodesPartitionTheGraph) {
  const Graph g = gen::erdos_renyi_gnm(100, 250, 21);
  OneToManyConfig config;
  config.num_hosts = 4;
  config.comm = CommPolicy::kBroadcast;
  const auto hosts = make_one_to_many_hosts(g, config);
  ASSERT_EQ(hosts.size(), 4U);
  std::vector<int> seen(g.num_nodes(), 0);
  for (const auto& h : hosts) {
    for (const auto u : h.owned_nodes()) ++seen[u];
  }
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    EXPECT_EQ(seen[u], 1) << "node " << u;
  }
}

TEST(OneToManyDeterminism, SameSeedSameResult) {
  const Graph g = gen::barabasi_albert(120, 3, 23);
  OneToManyConfig config;
  config.num_hosts = 8;
  config.seed = 5;
  const auto a = decompose_one_to_many(g, config);
  const auto b = decompose_one_to_many(g, config);
  EXPECT_EQ(a.coreness, b.coreness);
  EXPECT_EQ(a.traffic.total_messages, b.traffic.total_messages);
  EXPECT_EQ(extras_of(a).estimates_shipped_total,
            extras_of(b).estimates_shipped_total);
}

TEST(OneToManyRounds, ComparableToOneToOne) {
  // §5.2: "the number of rounds needed to complete the protocol was
  // equivalent to that of the one-to-one version". Hosts only help, so
  // one-to-many should never need more rounds.
  const Graph g = gen::erdos_renyi_gnm(300, 700, 25);
  OneToOneConfig one_config;
  one_config.mode = sim::DeliveryMode::kSynchronous;
  one_config.targeted_send = false;
  const auto one = api::decompose(g, api::kProtocolOneToOne, one_config);
  OneToManyConfig many_config;
  many_config.num_hosts = 16;
  many_config.mode = sim::DeliveryMode::kSynchronous;
  const auto many = decompose_one_to_many(g, many_config);
  EXPECT_LE(many.traffic.execution_time, one.traffic.execution_time);
}

}  // namespace
}  // namespace kcore::core
