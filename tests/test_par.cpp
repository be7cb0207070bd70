// Parallel/sequential parity: the src/par runtimes must compute the exact
// decomposition of every dataset profile at every thread count, and the
// facade must expose them like any other protocol.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <thread>
#include <vector>

#include "api/api.h"
#include "eval/datasets.h"
#include "graph/generators.h"
#include "seq/kcore_seq.h"

namespace kcore {
namespace {

/// 1, 2, 4 and whatever the hardware offers, deduplicated and sorted.
std::vector<unsigned> thread_counts() {
  std::set<unsigned> counts{1, 2, 4};
  const unsigned hw = std::thread::hardware_concurrency();
  if (hw > 0) counts.insert(hw);
  return {counts.begin(), counts.end()};
}

TEST(ParParity, OneToManyParMatchesSequentialOnEveryDataset) {
  // Small scale keeps the full 9-profile × 4-thread-count sweep fast; the
  // floor in eval::datasets keeps every profile structurally non-trivial.
  constexpr double kScale = 0.02;
  constexpr std::uint64_t kSeed = 7;
  for (const auto& spec : eval::dataset_registry()) {
    const graph::Graph g = spec.build(kScale, kSeed);
    const auto expected = seq::coreness_bz(g);
    for (const unsigned threads : thread_counts()) {
      api::RunOptions options;
      options.threads = threads;
      options.num_hosts = 8;
      options.seed = kSeed;
      const auto report =
          api::decompose(g, api::kProtocolOneToManyPar, options);
      ASSERT_TRUE(report.traffic.converged)
          << spec.name << " threads=" << threads;
      EXPECT_EQ(report.coreness, expected)
          << spec.name << " threads=" << threads;
    }
  }
}

TEST(ParParity, BspParMatchesSequentialOnEveryDataset) {
  constexpr double kScale = 0.02;
  constexpr std::uint64_t kSeed = 11;
  for (const auto& spec : eval::dataset_registry()) {
    const graph::Graph g = spec.build(kScale, kSeed);
    const auto expected = seq::coreness_bz(g);
    for (const unsigned threads : thread_counts()) {
      api::RunOptions options;
      options.threads = threads;
      options.seed = kSeed;
      const auto report = api::decompose(g, api::kProtocolBspPar, options);
      ASSERT_TRUE(report.traffic.converged)
          << spec.name << " threads=" << threads;
      EXPECT_EQ(report.coreness, expected)
          << spec.name << " threads=" << threads;
    }
  }
}

TEST(ParParity, TrafficIsThreadCountInvariant) {
  // The whole point of the barrier design: threads change the wall clock,
  // never the results. Same shards => identical traffic at any pool size.
  const graph::Graph g = graph::gen::barabasi_albert(2000, 3, 5);
  api::RunOptions options;
  options.num_hosts = 16;
  options.seed = 5;

  options.threads = 1;
  const auto base = api::decompose(g, api::kProtocolOneToManyPar, options);
  const auto& base_extras = std::get<api::ParExtras>(base.extras);
  for (const unsigned threads : thread_counts()) {
    options.threads = threads;
    const auto report =
        api::decompose(g, api::kProtocolOneToManyPar, options);
    EXPECT_EQ(report.coreness, base.coreness) << "threads=" << threads;
    EXPECT_EQ(report.traffic.total_messages, base.traffic.total_messages);
    EXPECT_EQ(report.traffic.rounds_executed, base.traffic.rounds_executed);
    EXPECT_EQ(report.traffic.execution_time, base.traffic.execution_time);
    EXPECT_EQ(report.traffic.sent_by_host, base.traffic.sent_by_host);
    const auto& extras = std::get<api::ParExtras>(report.extras);
    EXPECT_EQ(extras.estimates_shipped_total,
              base_extras.estimates_shipped_total);
  }
}

TEST(ParParity, BspParSuperstepsAreThreadCountInvariant) {
  const graph::Graph g = graph::gen::erdos_renyi_gnm(3000, 9000, 13);
  api::RunOptions options;
  options.seed = 13;

  options.threads = 1;
  const auto base = api::decompose(g, api::kProtocolBspPar, options);
  for (const unsigned threads : thread_counts()) {
    options.threads = threads;
    const auto report = api::decompose(g, api::kProtocolBspPar, options);
    EXPECT_EQ(report.coreness, base.coreness) << "threads=" << threads;
    EXPECT_EQ(report.traffic.rounds_executed, base.traffic.rounds_executed)
        << "threads=" << threads;
    EXPECT_EQ(report.traffic.total_messages, base.traffic.total_messages)
        << "threads=" << threads;
  }
}

// --- degenerate graphs ------------------------------------------------------

TEST(ParEdgeCases, SingleNode) {
  const graph::Graph g = graph::Graph::from_edges(1, {});
  for (const char* protocol : {"one-to-many-par", "bsp-par"}) {
    api::RunOptions options;
    options.threads = 4;
    const auto report = api::decompose(g, protocol, options);
    ASSERT_TRUE(report.traffic.converged) << protocol;
    ASSERT_EQ(report.coreness.size(), 1u) << protocol;
    EXPECT_EQ(report.coreness[0], 0u) << protocol;
  }
}

TEST(ParEdgeCases, MoreShardsAndThreadsThanNodes) {
  const graph::Graph g = graph::gen::clique(5);
  api::RunOptions options;
  options.threads = 64;
  options.num_hosts = 64;
  for (const char* protocol : {"one-to-many-par", "bsp-par"}) {
    const auto report = api::decompose(g, protocol, options);
    ASSERT_TRUE(report.traffic.converged) << protocol;
    EXPECT_EQ(report.coreness, std::vector<graph::NodeId>(5, 4))
        << protocol;
    const auto& extras = std::get<api::ParExtras>(report.extras);
    // The engine never spins up more workers than it has shards to run.
    EXPECT_LE(extras.threads_used, 64u) << protocol;
    EXPECT_GE(extras.threads_used, 1u) << protocol;
  }
}

// --- facade integration -----------------------------------------------------

TEST(ParFacade, RegisteredInProtocolRegistry) {
  const auto& registry = api::ProtocolRegistry::instance();
  EXPECT_TRUE(registry.contains(api::kProtocolOneToManyPar));
  EXPECT_TRUE(registry.contains(api::kProtocolBspPar));
}

TEST(ParFacade, FaultPlanIsRejected) {
  const graph::Graph g = graph::gen::cycle(8);
  for (const char* protocol : {"one-to-many-par", "bsp-par"}) {
    api::DecomposeRequest request;
    request.graph = &g;
    request.protocol = protocol;
    request.options.faults.max_extra_delay = 2;
    const auto problems = api::validate(request);
    ASSERT_EQ(problems.size(), 1u) << protocol;
    EXPECT_NE(problems[0].find("channel-fault"), std::string::npos);
  }
}

TEST(ParFacade, AbsurdThreadCountIsRejected) {
  core::RunOptions options;
  options.threads = 5000;
  const auto problems = options.validate();
  ASSERT_EQ(problems.size(), 1u);
  EXPECT_NE(problems[0].find("threads"), std::string::npos);
}

TEST(ParFacade, ObserverStreamsMonotoneRounds) {
  const graph::Graph g = graph::gen::barabasi_albert(1500, 3, 3);
  api::RunOptions options;
  options.threads = 4;
  options.num_hosts = 8;
  for (const char* protocol : {"one-to-many-par", "bsp-par"}) {
    std::uint64_t last_round = 0;
    std::uint64_t last_messages = 0;
    std::uint64_t events = 0;
    graph::NodeId final_max = 0;
    const auto report = api::decompose(
        g, protocol, options, [&](const api::ProgressEvent& event) {
          // The contract in run_options.h: serial delivery, strictly
          // increasing rounds — plain state, no locks.
          EXPECT_EQ(event.round, last_round + 1);
          EXPECT_GE(event.messages, last_messages);
          EXPECT_EQ(event.estimates.size(), g.num_nodes());
          last_round = event.round;
          last_messages = event.messages;
          ++events;
          final_max = *std::max_element(event.estimates.begin(),
                                        event.estimates.end());
        });
    ASSERT_TRUE(report.traffic.converged) << protocol;
    EXPECT_EQ(events, report.traffic.rounds_executed) << protocol;
    // The last event's estimates are the converged coreness.
    EXPECT_EQ(final_max, *std::max_element(report.coreness.begin(),
                                           report.coreness.end()))
        << protocol;
  }
}

}  // namespace
}  // namespace kcore
