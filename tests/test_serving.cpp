// Serving: concurrent session.run() over one shared prepared Session
// (api/session.h). The contract under test — the tentpole of the
// single-caller-hazard fix:
//
//  * K threads × R runs over ONE prepared Session each yield reports
//    bit-identical to a one-shot api::decompose(), for every registered
//    built-in protocol, keyed on Capabilities::deterministic_extras
//    exactly like the sequential parity pin in test_session.cpp. Runs
//    share the immutable prepared state but never a run context.
//  * Lazy preparation races safely: K threads calling run() on an
//    unprepared Session serialize the derivation, every run succeeds,
//    and the phase-timing invariant elapsed == setup + run holds on
//    every concurrently-produced report.
//
// This file runs under the TSan CI job: the assertions prove parity,
// the sanitizer proves the absence of data races on the shared state.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "api/session.h"
#include "graph/generators.h"
#include "seq/kcore_seq.h"

namespace kcore {
namespace {

using graph::Graph;
using graph::NodeId;
namespace gen = graph::gen;

constexpr unsigned kClients = 4;
constexpr int kRunsPerClient = 2;

/// The eight built-ins by key (other tests may register extras).
std::vector<std::string> builtin_protocols() {
  return {std::string(api::kProtocolBz),
          std::string(api::kProtocolPeeling),
          std::string(api::kProtocolOneToOne),
          std::string(api::kProtocolOneToMany),
          std::string(api::kProtocolBsp),
          std::string(api::kProtocolOneToManyPar),
          std::string(api::kProtocolBspPar),
          std::string(api::kProtocolBspAsync)};
}

/// Non-timing parity against the one-shot reference, honoring the
/// protocol's determinism contract (same keying as test_session.cpp):
/// deterministic protocols must match bit for bit, schedule-dependent
/// ones on coreness and convergence.
void expect_serving_parity(const api::DecomposeReport& actual,
                           const api::DecomposeReport& expected,
                           const api::Capabilities& caps,
                           const std::string& label) {
  EXPECT_EQ(actual.protocol, expected.protocol) << label;
  EXPECT_EQ(actual.coreness, expected.coreness) << label;
  EXPECT_EQ(actual.traffic.converged, expected.traffic.converged) << label;
  if (!caps.deterministic_extras) return;
  EXPECT_EQ(actual.traffic.total_messages, expected.traffic.total_messages)
      << label;
  EXPECT_EQ(actual.traffic.execution_time, expected.traffic.execution_time)
      << label;
  EXPECT_EQ(actual.traffic.rounds_executed, expected.traffic.rounds_executed)
      << label;
  EXPECT_EQ(actual.traffic.sent_by_host, expected.traffic.sent_by_host)
      << label;
  ASSERT_EQ(actual.extras.index(), expected.extras.index()) << label;
  if (const auto* a = std::get_if<api::ParExtras>(&actual.extras)) {
    const auto& e = std::get<api::ParExtras>(expected.extras);
    EXPECT_EQ(a->threads_used, e.threads_used) << label;
    EXPECT_EQ(a->shards, e.shards) << label;
    EXPECT_EQ(a->estimates_shipped_total, e.estimates_shipped_total) << label;
    EXPECT_EQ(a->cross_shard_messages, e.cross_shard_messages) << label;
  }
}

/// Launch `clients` threads against `fn(client_index)`, joined before
/// returning; a start flag keeps the bodies overlapping.
template <typename Fn>
void run_clients(unsigned clients, Fn&& fn) {
  std::atomic<bool> go{false};
  std::vector<std::thread> pool;
  pool.reserve(clients);
  for (unsigned c = 0; c < clients; ++c) {
    pool.emplace_back([&, c] {
      while (!go.load(std::memory_order_acquire)) {
      }
      fn(c);
    });
  }
  go.store(true, std::memory_order_release);
  for (auto& t : pool) t.join();
}

// ---------------------------------------------------------------------------
// Concurrent serving parity — the acceptance pin of this redesign
// ---------------------------------------------------------------------------

TEST(ServingParity, ConcurrentRunsMatchOneShotOnEveryProtocol) {
  const Graph g = gen::barabasi_albert(300, 3, 11);
  const auto truth = seq::coreness_bz(g);
  const auto& registry = api::ProtocolRegistry::instance();
  for (const auto& protocol : builtin_protocols()) {
    const auto& caps = registry.entry(protocol).capabilities;
    api::RunOptions options;
    options.seed = 23;
    options.num_hosts = 4;
    if (caps.consumes_threads) options.threads = 2;

    const auto one_shot = api::decompose(g, protocol, options);
    ASSERT_EQ(one_shot.coreness, truth) << protocol;

    api::Session session(g, protocol, options);
    session.prepare();
    std::vector<std::vector<api::DecomposeReport>> reports(kClients);
    run_clients(kClients, [&](unsigned c) {
      for (int r = 0; r < kRunsPerClient; ++r) {
        reports[c].push_back(session.run());
      }
    });

    EXPECT_EQ(session.runs_completed(),
              std::uint64_t{kClients} * kRunsPerClient)
        << protocol;
    for (unsigned c = 0; c < kClients; ++c) {
      for (int r = 0; r < kRunsPerClient; ++r) {
        expect_serving_parity(reports[c][r], one_shot, caps,
                              protocol + " client " + std::to_string(c) +
                                  " run " + std::to_string(r));
      }
    }
  }
}

TEST(ServingParity, LazyPrepareRaceIsSafe) {
  const Graph g = gen::barabasi_albert(300, 3, 29);
  const auto truth = seq::coreness_bz(g);
  for (const auto protocol :
       {api::kProtocolOneToManyPar, api::kProtocolBspPar,
        api::kProtocolBspAsync}) {
    api::RunOptions options;
    options.threads = 2;
    api::Session session(g, protocol, options);
    ASSERT_FALSE(session.prepared()) << protocol;

    // Nobody prepares up front: the run() calls race for the lazy
    // preparation. Exactly one derivation happens (prepare_ms is fixed
    // afterwards), every run succeeds against the shared result.
    std::vector<api::DecomposeReport> reports(kClients);
    run_clients(kClients, [&](unsigned c) { reports[c] = session.run(); });

    EXPECT_TRUE(session.prepared()) << protocol;
    EXPECT_GT(session.prepare_ms(), 0.0) << protocol;
    EXPECT_EQ(session.runs_completed(), std::uint64_t{kClients}) << protocol;
    for (const auto& report : reports) {
      EXPECT_EQ(report.coreness, truth) << protocol;
    }
  }
}

TEST(ServingParity, ConcurrentPrepareIsIdempotent) {
  const Graph g = gen::barabasi_albert(200, 3, 31);
  api::Session session(g, api::kProtocolBspAsync);
  run_clients(kClients, [&](unsigned) { session.prepare(); });
  ASSERT_TRUE(session.prepared());
  const double prepare_ms = session.prepare_ms();
  EXPECT_GT(prepare_ms, 0.0);
  session.prepare();
  EXPECT_EQ(session.prepare_ms(), prepare_ms);
  EXPECT_EQ(session.run().coreness, seq::coreness_bz(g));
}

// ---------------------------------------------------------------------------
// Phase timing under concurrency
// ---------------------------------------------------------------------------

TEST(ServingTiming, ElapsedEqualsSetupPlusRunOnEveryConcurrentReport) {
  const Graph g = gen::barabasi_albert(300, 3, 37);
  for (const auto protocol :
       {api::kProtocolOneToManyPar, api::kProtocolBspPar,
        api::kProtocolBspAsync}) {
    api::RunOptions options;
    options.threads = 2;
    api::Session session(g, protocol, options);
    // No prepare() up front: one of the concurrent runs absorbs the
    // prepare cost into its setup, and the invariant must hold on that
    // report too, not only on warm ones.
    std::vector<std::vector<api::DecomposeReport>> reports(kClients);
    run_clients(kClients, [&](unsigned c) {
      for (int r = 0; r < kRunsPerClient; ++r) {
        reports[c].push_back(session.run());
      }
    });
    for (const auto& mine : reports) {
      for (const auto& report : mine) {
        if (const auto* par = std::get_if<api::ParExtras>(&report.extras)) {
          EXPECT_EQ(report.elapsed_ms, par->setup_ms + par->run_ms)
              << protocol;
        } else {
          const auto& async = std::get<api::AsyncExtras>(report.extras);
          EXPECT_EQ(report.elapsed_ms, async.setup_ms + async.run_ms)
              << protocol;
        }
      }
    }
  }
}

}  // namespace
}  // namespace kcore
