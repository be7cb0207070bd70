#include "agg/gossip.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>

#include "agg/termination.h"
#include "core/assignment.h"
#include "graph/generators.h"

namespace kcore::agg {
namespace {

namespace gen = kcore::graph::gen;
using graph::Graph;
using graph::NodeId;

std::vector<MaxGossipHost> make_max_hosts(const Graph& overlay,
                                          const std::vector<std::uint64_t>& v,
                                          std::uint32_t window,
                                          std::uint64_t seed) {
  std::vector<MaxGossipHost> hosts;
  for (sim::HostId h = 0; h < overlay.num_nodes(); ++h) {
    hosts.emplace_back(&overlay, h, v[h], window, seed);
  }
  return hosts;
}

TEST(MaxGossip, ConvergesToGlobalMaxOnClique) {
  const Graph overlay = gen::clique(32);
  std::vector<std::uint64_t> values(32);
  for (std::size_t i = 0; i < 32; ++i) values[i] = i * 3;
  sim::EngineConfig config;
  config.max_rounds = 10000;
  sim::Engine<MaxGossipHost> engine(make_max_hosts(overlay, values, 6, 1),
                                    config);
  const auto stats = engine.run();
  EXPECT_TRUE(stats.converged);
  for (const auto& h : engine.hosts()) {
    EXPECT_EQ(h.value(), 93U);
    EXPECT_TRUE(h.quiet());
  }
}

TEST(MaxGossip, ConvergesOnSparseOverlay) {
  const Graph overlay = gen::watts_strogatz(64, 4, 0.3, 5);
  std::vector<std::uint64_t> values(64, 1);
  values[17] = 1000;  // a single maximum must still flood everywhere
  sim::EngineConfig config;
  config.max_rounds = 10000;
  config.seed = 2;
  sim::Engine<MaxGossipHost> engine(make_max_hosts(overlay, values, 8, 3),
                                    config);
  const auto stats = engine.run();
  EXPECT_TRUE(stats.converged);
  for (const auto& h : engine.hosts()) EXPECT_EQ(h.value(), 1000U);
}

TEST(MaxGossip, LogarithmicScaling) {
  // §3.3 / [6]: epidemic aggregation converges in O(log H) rounds. The
  // convergence round should grow far slower than linearly in H.
  auto rounds_for = [](NodeId n) {
    const Graph overlay = gen::clique(n);
    std::vector<std::uint64_t> values(n, 0);
    values[0] = 42;
    GossipTerminationConfig config;
    config.quiet_window = 6;
    config.seed = 7;
    const auto result = gossip_termination(overlay, values, config);
    EXPECT_TRUE(result.converged) << "n=" << n;
    return result.rounds_to_converge;
  };
  const auto r16 = rounds_for(16);
  const auto r256 = rounds_for(256);
  EXPECT_LE(r256, 4 * std::max<std::uint64_t>(r16, 1));
  EXPECT_LE(r256, 40U);  // ~log2(256)=8 plus gossip slack
}

TEST(HostOverlay, MatchesNeighborHRelation) {
  // Path 0-1-2-3 with modulo-2 assignment: hosts {0,1} are adjacent
  // because edges (0,1), (1,2), (2,3) all cross the partition.
  const Graph g = gen::chain(4);
  const auto owner =
      core::assign_nodes(4, 2, core::AssignmentPolicy::kModulo);
  const Graph overlay = build_host_overlay(g, owner, 2);
  EXPECT_EQ(overlay.num_nodes(), 2U);
  EXPECT_EQ(overlay.num_edges(), 1U);
  EXPECT_TRUE(overlay.has_edge(0, 1));
}

TEST(HostOverlay, BlockAssignmentOnChainIsAPathOfHosts) {
  const Graph g = gen::chain(40);
  const auto owner =
      core::assign_nodes(40, 4, core::AssignmentPolicy::kBlock);
  const Graph overlay = build_host_overlay(g, owner, 4);
  // Blocks only touch adjacent blocks: host overlay is itself a chain.
  EXPECT_EQ(overlay.num_edges(), 3U);
  EXPECT_TRUE(overlay.has_edge(0, 1));
  EXPECT_TRUE(overlay.has_edge(1, 2));
  EXPECT_TRUE(overlay.has_edge(2, 3));
  EXPECT_FALSE(overlay.has_edge(0, 3));
}

TEST(GossipTermination, DetectsTerminationRound) {
  const Graph overlay = gen::erdos_renyi_gnm(50, 200, 15);
  std::vector<std::uint64_t> last_active(50, 3);
  last_active[20] = 17;  // global last-activity round
  GossipTerminationConfig config;
  config.quiet_window = 5;
  const auto result = gossip_termination(overlay, last_active, config);
  EXPECT_TRUE(result.converged);
  EXPECT_GT(result.rounds_to_converge, 0U);
  EXPECT_EQ(result.rounds_to_detect,
            result.rounds_to_converge + config.quiet_window);
  EXPECT_GT(result.control_messages, 0U);
}

TEST(GossipTermination, DisconnectedOverlayCannotConverge) {
  // Two components: the max lives in one; the other can never learn it.
  const std::array<NodeId, 2> sizes{10, 10};
  const Graph overlay = gen::disjoint_cliques(sizes);
  std::vector<std::uint64_t> last_active(20, 1);
  last_active[0] = 50;  // max confined to the first clique
  GossipTerminationConfig config;
  config.quiet_window = 4;
  config.max_rounds = 500;
  const auto result = gossip_termination(overlay, last_active, config);
  EXPECT_FALSE(result.converged);
}

TEST(GossipTermination, WiderQuietWindowCostsMoreMessages) {
  // The confirmation window trades safety for cost: both of these are
  // wide enough to converge, but the wider one keeps gossiping longer.
  const Graph overlay = gen::clique(24);
  std::vector<std::uint64_t> last_active(24, 2);
  last_active[5] = 9;
  GossipTerminationConfig narrow;
  narrow.quiet_window = 6;
  GossipTerminationConfig wide;
  wide.quiet_window = 24;
  const auto a = gossip_termination(overlay, last_active, narrow);
  const auto b = gossip_termination(overlay, last_active, wide);
  EXPECT_TRUE(a.converged);
  EXPECT_TRUE(b.converged);
  EXPECT_LT(a.control_messages, b.control_messages);
}

TEST(GossipTermination, TooNarrowWindowCanTerminatePrematurely) {
  // With a 1-round window hosts go quiet before the maximum has flooded
  // the overlay — the detector parameter is a real safety knob.
  const Graph overlay = gen::cycle(40);  // slow-mixing overlay
  std::vector<std::uint64_t> last_active(40, 1);
  last_active[0] = 99;
  GossipTerminationConfig config;
  config.quiet_window = 1;
  const auto result = gossip_termination(overlay, last_active, config);
  EXPECT_FALSE(result.converged);
}

TEST(GossipTermination, TrivialSingleHost) {
  const Graph overlay = Graph::from_edges(1, {});
  const auto result = gossip_termination(overlay, {5}, {});
  // One host already knows the max at round... the first observed round.
  EXPECT_TRUE(result.converged);
}

}  // namespace
}  // namespace kcore::agg
