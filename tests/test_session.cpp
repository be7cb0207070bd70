// The Session/Plan contract (api/session.h):
//
//  * Reuse parity — for EVERY registered built-in protocol and every
//    dataset profile, running twice on one prepared Session yields
//    reports bit-identical to one-shot api::decompose() on all
//    non-timing fields, with schedule-dependent extras exempted per
//    Capabilities::deterministic_extras (this is the acceptance pin of
//    the Session redesign).
//  * Session mechanics — eager validation, idempotent prepare(),
//    the elapsed_ms == setup+run invariant on warm runs.
//  * Plan — cell expansion (including the capability-driven collapse of
//    the threads axis), per-cell aggregation, per-report hooks, and
//    validation pre-flight.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "api/session.h"
#include "eval/datasets.h"
#include "graph/generators.h"
#include "seq/kcore_seq.h"
#include "util/check.h"

namespace kcore {
namespace {

using graph::Graph;
using graph::NodeId;
namespace gen = graph::gen;

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

/// Compare every non-timing field of two reports, honoring the
/// protocol's determinism contract: deterministic protocols must match
/// bit for bit (traffic + extras, timing fields excepted); for the
/// schedule-dependent ones only coreness and convergence are stable.
void expect_report_parity(const api::DecomposeReport& actual,
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
  if (const auto* a = std::get_if<api::OneToOneExtras>(&actual.extras)) {
    const auto& e = std::get<api::OneToOneExtras>(expected.extras);
    EXPECT_EQ(a->last_send_round, e.last_send_round) << label;
    EXPECT_EQ(a->activity_transitions, e.activity_transitions) << label;
  } else if (const auto* a =
                 std::get_if<api::OneToManyExtras>(&actual.extras)) {
    const auto& e = std::get<api::OneToManyExtras>(expected.extras);
    EXPECT_EQ(a->estimates_shipped_total, e.estimates_shipped_total) << label;
    EXPECT_DOUBLE_EQ(a->overhead_per_node, e.overhead_per_node) << label;
    EXPECT_EQ(a->estimates_shipped_by_host, e.estimates_shipped_by_host)
        << label;
    EXPECT_EQ(a->last_send_round_by_host, e.last_send_round_by_host) << label;
  } else if (const auto* a = std::get_if<api::BspExtras>(&actual.extras)) {
    const auto& e = std::get<api::BspExtras>(expected.extras);
    EXPECT_EQ(a->stats.supersteps, e.stats.supersteps) << label;
    EXPECT_EQ(a->stats.messages_emitted, e.stats.messages_emitted) << label;
    EXPECT_EQ(a->stats.messages_delivered, e.stats.messages_delivered)
        << label;
    EXPECT_EQ(a->stats.messages_cross_worker, e.stats.messages_cross_worker)
        << label;
    EXPECT_EQ(a->stats.converged, e.stats.converged) << label;
  } else if (const auto* a = std::get_if<api::ParExtras>(&actual.extras)) {
    // setup_ms / run_ms are wall-clock — everything else must match.
    const auto& e = std::get<api::ParExtras>(expected.extras);
    EXPECT_EQ(a->threads_used, e.threads_used) << label;
    EXPECT_EQ(a->shards, e.shards) << label;
    EXPECT_EQ(a->estimates_shipped_total, e.estimates_shipped_total) << label;
    EXPECT_DOUBLE_EQ(a->overhead_per_node, e.overhead_per_node) << label;
    EXPECT_EQ(a->cross_shard_messages, e.cross_shard_messages) << label;
  }
}

// ---------------------------------------------------------------------------
// Reuse parity — the acceptance pin
// ---------------------------------------------------------------------------

TEST(SessionParity, WarmRunsMatchOneShotOnEveryProtocolAndProfile) {
  constexpr double kScale = 0.02;
  constexpr std::uint64_t kSeed = 13;
  const auto& registry = api::ProtocolRegistry::instance();
  for (const auto& spec : eval::dataset_registry()) {
    const Graph g = spec.build(kScale, 7);
    const auto truth = seq::coreness_bz(g);
    for (const auto& protocol : builtin_protocols()) {
      const auto& caps = registry.entry(protocol).capabilities;
      api::RunOptions options;
      options.seed = kSeed;
      options.num_hosts = 4;
      if (caps.consumes_threads) options.threads = 2;
      const std::string label = spec.name + "/" + protocol;

      const auto one_shot = api::decompose(g, protocol, options);
      EXPECT_EQ(one_shot.coreness, truth) << label;

      api::Session session(g, protocol, options);
      EXPECT_FALSE(session.prepared()) << label;
      const auto first = session.run();
      EXPECT_TRUE(session.prepared()) << label;
      const auto warm = session.run();
      EXPECT_EQ(session.runs_completed(), 2U) << label;

      expect_report_parity(first, one_shot, caps, label + " (first)");
      expect_report_parity(warm, one_shot, caps, label + " (warm)");
    }
  }
}

// ---------------------------------------------------------------------------
// Session mechanics
// ---------------------------------------------------------------------------

TEST(SessionMechanics, ValidatesEagerly) {
  const Graph g = gen::clique(4);
  EXPECT_THROW(api::Session(g, "simulated-annealing"), util::CheckError);
  api::RunOptions faulty;
  faulty.faults.max_extra_delay = 2;
  EXPECT_THROW(api::Session(g, api::kProtocolBz, faulty), util::CheckError);
  api::RunOptions threaded;
  threaded.threads = 4;
  EXPECT_THROW(api::Session(g, api::kProtocolOneToOne, threaded),
               util::CheckError);
}

TEST(SessionMechanics, PrepareIsIdempotentAndObservable) {
  const Graph g = gen::barabasi_albert(200, 3, 5);
  api::Session session(g, api::kProtocolOneToMany);
  EXPECT_FALSE(session.prepared());
  EXPECT_EQ(session.prepare_ms(), 0.0);
  session.prepare();
  ASSERT_TRUE(session.prepared());
  const double first_prepare_ms = session.prepare_ms();
  EXPECT_GT(first_prepare_ms, 0.0);
  session.prepare();  // no-op
  EXPECT_EQ(session.prepare_ms(), first_prepare_ms);
  const auto report = session.run();
  EXPECT_EQ(report.coreness, seq::coreness_bz(g));
  EXPECT_EQ(session.capabilities().execution, api::ExecutionKind::kSimulated);
}

TEST(SessionMechanics, WarmRunsKeepTheElapsedInvariant) {
  const Graph g = gen::barabasi_albert(300, 3, 17);
  api::RunOptions options;
  options.threads = 2;
  for (const auto protocol :
       {api::kProtocolOneToManyPar, api::kProtocolBspPar,
        api::kProtocolBspAsync}) {
    api::Session session(g, protocol, options);
    (void)session.run();
    const auto warm = session.run();
    if (const auto* par = std::get_if<api::ParExtras>(&warm.extras)) {
      EXPECT_EQ(warm.elapsed_ms, par->setup_ms + par->run_ms) << protocol;
    } else {
      const auto& async = std::get<api::AsyncExtras>(warm.extras);
      EXPECT_EQ(warm.elapsed_ms, async.setup_ms + async.run_ms) << protocol;
    }
  }
}

TEST(SessionMechanics, StreamsProgressPerRun) {
  const Graph g = gen::barabasi_albert(150, 3, 21);
  api::Session session(g, api::kProtocolOneToMany);
  for (int run = 0; run < 2; ++run) {
    std::uint64_t last_round = 0;
    (void)session.run([&](const api::ProgressEvent& event) {
      EXPECT_EQ(event.round, last_round + 1);
      last_round = event.round;
    });
    EXPECT_GT(last_round, 0U) << "run " << run;
  }
}

TEST(SessionMechanics, MoveTransfersPreparedStateWholesale) {
  const Graph g = gen::barabasi_albert(250, 3, 19);
  const auto truth = seq::coreness_bz(g);
  api::Session original(g, api::kProtocolBspAsync);
  original.prepare();
  const double prepare_ms = original.prepare_ms();
  (void)original.run();

  // Move construction: the destination owns the prepared state and the
  // run counter; reports from it stay correct.
  api::Session moved(std::move(original));
  EXPECT_TRUE(moved.prepared());
  EXPECT_EQ(moved.prepare_ms(), prepare_ms);
  EXPECT_EQ(moved.runs_completed(), 1U);
  EXPECT_EQ(moved.run().coreness, truth);

  // Move assignment, same contract.
  api::Session assigned(g, api::kProtocolBz);
  assigned = std::move(moved);
  EXPECT_TRUE(assigned.prepared());
  EXPECT_EQ(assigned.protocol(), api::kProtocolBspAsync);
  EXPECT_EQ(assigned.runs_completed(), 2U);
  EXPECT_EQ(assigned.run().coreness, truth);
}

TEST(SessionMechanics, UseAfterMoveThrowsInsteadOfCrashing) {
  const Graph g = gen::barabasi_albert(150, 3, 23);
  api::Session original(g, api::kProtocolOneToMany);
  (void)original.run();
  api::Session moved(std::move(original));

  // The husk reports unprepared/zero through the noexcept observers and
  // throws (never UB) from the entry points that would need state.
  EXPECT_FALSE(original.prepared());     // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(original.prepare_ms(), 0.0);
  EXPECT_EQ(original.runs_completed(), 0U);
  EXPECT_THROW((void)original.run(), util::CheckError);
  EXPECT_THROW(original.prepare(), util::CheckError);
  EXPECT_EQ(moved.run().coreness, seq::coreness_bz(g));
}

// ---------------------------------------------------------------------------
// Plan
// ---------------------------------------------------------------------------

TEST(PlanSweep, ExpandsCellsAndCollapsesIgnoredThreadAxis) {
  const Graph g = gen::clique(6);
  api::PlanSpec spec;
  spec.protocols = {std::string(api::kProtocolBz),
                    std::string(api::kProtocolBspPar)};
  spec.threads = {1, 2};
  spec.seeds = {1, 2, 3};
  const api::Plan plan(g, spec);
  const auto cells = plan.cells();
  // bz ignores the threads axis (1 × 3 seeds); bsp-par sweeps it (2 × 3).
  ASSERT_EQ(cells.size(), 3U + 6U);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(cells[i].protocol, "bz");
    EXPECT_EQ(cells[i].threads, 0U);  // base.threads
    EXPECT_EQ(cells[i].seed, spec.seeds[i]);
  }
  for (std::size_t i = 3; i < cells.size(); ++i) {
    EXPECT_EQ(cells[i].protocol, "bsp-par");
  }
  EXPECT_TRUE(plan.validate().empty());
}

TEST(PlanSweep, AggregatesRepeatsAndInvokesHook) {
  const Graph g = gen::barabasi_albert(200, 3, 3);
  const auto truth = seq::coreness_bz(g);
  api::PlanSpec spec;
  spec.protocols = {std::string(api::kProtocolOneToMany)};
  spec.seeds = {5, 9};
  spec.repeats = 3;
  spec.base.num_hosts = 4;
  api::Plan plan(g, spec);
  int hook_calls = 0;
  int last_repeat = -1;
  const auto results = plan.run(
      [&](const api::PlanCell& cell, int repeat,
          const api::DecomposeReport& report) {
        EXPECT_EQ(cell.protocol, "one-to-many");
        EXPECT_EQ(report.coreness, truth);
        last_repeat = repeat;
        ++hook_calls;
      });
  EXPECT_EQ(hook_calls, 2 * 3);
  EXPECT_EQ(last_repeat, 2);
  ASSERT_EQ(results.size(), 2U);
  for (const auto& cell : results) {
    EXPECT_EQ(cell.repeats, 3);
    EXPECT_EQ(cell.wall_ms.count, 3U);
    EXPECT_EQ(cell.warm_wall_ms.count, 2U);
    EXPECT_GT(cell.prepare_ms, 0.0);
    EXPECT_GT(cell.first_wall_ms, 0.0);
    EXPECT_LE(cell.wall_ms.min, cell.wall_ms.median);
    EXPECT_LE(cell.wall_ms.median, cell.wall_ms.max);
    EXPECT_EQ(cell.last.coreness, truth);
    EXPECT_TRUE(cell.last.traffic.converged);
  }
}

TEST(PlanSweep, ValidatePreflightsEveryCell) {
  const Graph g = gen::clique(4);
  api::PlanSpec spec;
  spec.protocols = {std::string(api::kProtocolBz)};
  spec.base.comm = api::CommPolicy::kBroadcast;
  api::Plan plan(g, spec);
  const auto problems = plan.validate();
  ASSERT_EQ(problems.size(), 1U);
  EXPECT_NE(problems[0].find("broadcast"), std::string::npos);
  EXPECT_THROW((void)plan.run(), util::CheckError);
}

TEST(PlanSweep, RejectsStructurallyBrokenSpecs) {
  const Graph g = gen::clique(4);
  api::PlanSpec empty;
  EXPECT_THROW(api::Plan(g, empty), util::CheckError);
  api::PlanSpec no_repeats;
  no_repeats.protocols = {std::string(api::kProtocolBz)};
  no_repeats.repeats = 0;
  EXPECT_THROW(api::Plan(g, no_repeats), util::CheckError);
}

}  // namespace
}  // namespace kcore
