// The facade contract: api::decompose must be a zero-cost veneer over the
// protocol layers' build + run_*_prepared steps — bit-identical coreness,
// traffic and extras at fixed seeds — plus the registry/options machinery
// itself: string round-trips for every enum, unknown-protocol and
// invalid-options error paths, and the unified ProgressObserver stream.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <thread>
#include <variant>
#include <vector>

#include "api/api.h"
#include "api/cli_options.h"
#include "core/one_to_many.h"
#include "core/one_to_one.h"
#include "core/pregel_kcore.h"
#include "graph/generators.h"
#include "seq/kcore_seq.h"
#include "util/check.h"

namespace kcore {
namespace {

using graph::Graph;
using graph::NodeId;
namespace gen = graph::gen;

/// A registrable preparer for test-only protocols: every run reports
/// `value` as every node's coreness.
api::ProtocolRegistry::Preparer constant_preparer(NodeId value) {
  struct Constant final : api::PreparedProtocol {
    explicit Constant(NodeId v) : value(v) {}
    api::DecomposeReport run(const api::DecomposeRequest& request,
                             const api::ProgressObserver&) const override {
      api::DecomposeReport report;
      report.coreness.assign(request.graph->num_nodes(), value);
      report.traffic.converged = true;
      return report;
    }
    NodeId value;
  };
  return [value](const api::DecomposeRequest&) {
    return std::make_unique<Constant>(value);
  };
}

void expect_traffic_eq(const sim::TrafficStats& a, const sim::TrafficStats& b,
                       const std::string& label) {
  EXPECT_EQ(a.total_messages, b.total_messages) << label;
  EXPECT_EQ(a.execution_time, b.execution_time) << label;
  EXPECT_EQ(a.rounds_executed, b.rounds_executed) << label;
  EXPECT_EQ(a.converged, b.converged) << label;
  EXPECT_EQ(a.sent_by_host, b.sent_by_host) << label;
}

// ---------------------------------------------------------------------------
// Parity with the protocol layers (freshly built state, run_*_prepared)
// ---------------------------------------------------------------------------

TEST(ApiParity, OneToOneMatchesLegacyRunner) {
  const Graph g = gen::barabasi_albert(300, 3, 7);
  for (const auto mode :
       {sim::DeliveryMode::kSynchronous, sim::DeliveryMode::kCycleRandomOrder}) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      api::RunOptions options;
      options.mode = mode;
      options.seed = seed;
      const auto facade =
          api::decompose(g, api::kProtocolOneToOne, options);
      const auto direct = core::run_one_to_one_prepared(
          g, core::make_one_to_one_nodes(g, options.targeted_send), options);
      const std::string label =
          std::string("mode=") + api::to_string(mode) + " seed=" +
          std::to_string(seed);
      EXPECT_EQ(facade.coreness, direct.coreness) << label;
      expect_traffic_eq(facade.traffic, direct.traffic, label);
      const auto& extras = std::get<api::OneToOneExtras>(facade.extras);
      EXPECT_EQ(extras.last_send_round, direct.last_send_round) << label;
      EXPECT_EQ(extras.activity_transitions, direct.activity_transitions)
          << label;
    }
  }
}

TEST(ApiParity, OneToOneMatchesLegacyUnderFaults) {
  const Graph g = gen::erdos_renyi_gnm(200, 600, 11);
  api::RunOptions options;
  options.seed = 5;
  options.faults.max_extra_delay = 2;
  options.faults.duplicate_probability = 0.2;
  const auto facade = api::decompose(g, api::kProtocolOneToOne, options);
  const auto direct = core::run_one_to_one_prepared(
      g, core::make_one_to_one_nodes(g, options.targeted_send), options);
  EXPECT_EQ(facade.coreness, direct.coreness);
  expect_traffic_eq(facade.traffic, direct.traffic, "faulty");
}

TEST(ApiParity, OneToManyMatchesLegacyRunner) {
  const Graph g = gen::watts_strogatz(400, 6, 0.1, 13);
  for (const sim::HostId hosts : {1U, 5U, 16U}) {
    for (const auto comm :
         {api::CommPolicy::kBroadcast, api::CommPolicy::kPointToPoint}) {
      api::RunOptions options;
      options.num_hosts = hosts;
      options.comm = comm;
      options.assignment = api::AssignmentPolicy::kBlock;
      options.seed = 17;
      const auto facade =
          api::decompose(g, api::kProtocolOneToMany, options);
      const auto direct = core::run_one_to_many_prepared(
          g, core::make_one_to_many_hosts(g, options), options);
      const std::string label = std::string("hosts=") +
                                std::to_string(hosts) + " comm=" +
                                api::to_string(comm);
      EXPECT_EQ(facade.coreness, direct.coreness) << label;
      expect_traffic_eq(facade.traffic, direct.traffic, label);
      const auto& extras = std::get<api::OneToManyExtras>(facade.extras);
      EXPECT_EQ(extras.estimates_shipped_total,
                direct.estimates_shipped_total)
          << label;
      EXPECT_DOUBLE_EQ(extras.overhead_per_node, direct.overhead_per_node)
          << label;
      EXPECT_EQ(extras.estimates_shipped_by_host,
                direct.estimates_shipped_by_host)
          << label;
      EXPECT_EQ(extras.last_send_round_by_host,
                direct.last_send_round_by_host)
          << label;
    }
  }
}

TEST(ApiParity, BspMatchesLegacyRunner) {
  const Graph g = gen::barabasi_albert(250, 4, 3);
  api::RunOptions options;
  options.num_hosts = 8;
  const auto facade = api::decompose(g, api::kProtocolBsp, options);
  const auto direct = core::run_pregel_kcore_prepared(
      g, core::assign_nodes(g.num_nodes(), 8, options.assignment, options.seed),
      8, options.targeted_send);
  EXPECT_EQ(facade.coreness, direct.coreness);
  const auto& stats = std::get<api::BspExtras>(facade.extras).stats;
  EXPECT_EQ(stats.supersteps, direct.stats.supersteps);
  EXPECT_EQ(stats.messages_emitted, direct.stats.messages_emitted);
  EXPECT_EQ(stats.messages_delivered, direct.stats.messages_delivered);
  EXPECT_EQ(stats.messages_cross_worker, direct.stats.messages_cross_worker);
  EXPECT_EQ(stats.converged, direct.stats.converged);
  // The traffic mapping documented in api.h.
  EXPECT_EQ(facade.traffic.total_messages, stats.messages_delivered);
  EXPECT_EQ(facade.traffic.rounds_executed, stats.supersteps);
  EXPECT_TRUE(facade.traffic.converged);
}

TEST(ApiParity, BspHonorsMaxRounds) {
  const Graph g = gen::barabasi_albert(250, 4, 3);
  api::RunOptions options;
  options.num_hosts = 8;
  options.max_rounds = 1;
  const auto capped = api::decompose(g, api::kProtocolBsp, options);
  EXPECT_FALSE(capped.traffic.converged);
  EXPECT_EQ(capped.traffic.rounds_executed, 1U);
}

TEST(ApiParity, SequentialBaselinesMatchSeq) {
  const Graph g = gen::plant_dense_core(gen::barabasi_albert(200, 3, 5), 30,
                                        8, 6);
  const auto bz = api::decompose(g, api::kProtocolBz);
  EXPECT_EQ(bz.coreness, seq::coreness_bz(g));
  EXPECT_TRUE(bz.traffic.converged);
  EXPECT_EQ(bz.traffic.total_messages, 0U);
  EXPECT_TRUE(std::holds_alternative<std::monostate>(bz.extras));

  const auto peeling = api::decompose(g, api::kProtocolPeeling);
  EXPECT_EQ(peeling.coreness, seq::coreness_peeling(g));
}

TEST(ApiParity, AllBuiltinProtocolsAgreeThroughTheFacade) {
  const Graph g = gen::montresor_worst_case(40);
  const auto truth = seq::coreness_bz(g);
  api::RunOptions options;
  options.num_hosts = 4;
  // The five built-ins by key, not names(): another test registers an
  // extra (deliberately wrong) protocol in this process.
  for (const auto key :
       {api::kProtocolBz, api::kProtocolPeeling, api::kProtocolOneToOne,
        api::kProtocolOneToMany, api::kProtocolBsp}) {
    const std::string name(key);
    const auto report = api::decompose(g, name, options);
    EXPECT_EQ(report.coreness, truth) << name;
    EXPECT_TRUE(report.traffic.converged) << name;
    EXPECT_EQ(report.protocol, name);
    EXPECT_GE(report.elapsed_ms, 0.0) << name;
  }
}

// ---------------------------------------------------------------------------
// Registry behavior
// ---------------------------------------------------------------------------

TEST(ApiRegistry, BuiltinsAreRegisteredInOrder) {
  const auto names = api::ProtocolRegistry::instance().names();
  const std::vector<std::string> expected{"bz", "peeling", "one-to-one",
                                          "one-to-many", "bsp"};
  // Prefix check, not equality: registration is append-only and another
  // test in this process may have added a custom protocol after the
  // built-ins.
  ASSERT_GE(names.size(), expected.size());
  EXPECT_TRUE(std::equal(expected.begin(), expected.end(), names.begin()));
  for (const auto& name : expected) {
    EXPECT_TRUE(api::ProtocolRegistry::instance().contains(name));
  }
  EXPECT_FALSE(api::ProtocolRegistry::instance().contains("mapreduce"));
}

TEST(ApiRegistry, UnknownProtocolErrorListsRegisteredKeys) {
  try {
    (void)api::ProtocolRegistry::instance().entry("gossip");
    FAIL() << "expected CheckError";
  } catch (const util::CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("gossip"), std::string::npos) << what;
    EXPECT_NE(what.find("one-to-many"), std::string::npos) << what;
  }
}

TEST(ApiRegistry, DuplicateRegistrationThrows) {
  EXPECT_THROW(api::ProtocolRegistry::instance().add(
                   {"bz", "x", "duplicate", api::Capabilities{},
                    constant_preparer(0)}),
               util::CheckError);
}

TEST(ApiRegistry, RegistrationNeedsPreparer) {
  EXPECT_THROW(api::ProtocolRegistry::instance().add(
                   {"test-inert", "n/a", "no preparer", api::Capabilities{},
                    nullptr}),
               util::CheckError);
}

TEST(ApiRegistry, CustomProtocolIsDispatchable) {
  auto& registry = api::ProtocolRegistry::instance();
  if (!registry.contains("test-constant")) {
    // External registration with default (consume-nothing) capabilities:
    // the facade must dispatch it by name like a built-in.
    registry.add({"test-constant", "n/a", "returns all-zero coreness",
                  api::Capabilities{}, constant_preparer(0)});
  }
  const Graph g = gen::clique(5);
  const auto report = api::decompose(g, "test-constant");
  EXPECT_EQ(report.protocol, "test-constant");
  EXPECT_EQ(report.coreness, std::vector<NodeId>(5, 0));
}

// ---------------------------------------------------------------------------
// Capability descriptors
// ---------------------------------------------------------------------------

TEST(ApiCapabilities, ExecutionKindRoundTrips) {
  for (const auto kind :
       {api::ExecutionKind::kSequential, api::ExecutionKind::kSimulated,
        api::ExecutionKind::kThreadedRounds, api::ExecutionKind::kAsync}) {
    const auto parsed = api::parse_execution_kind(api::to_string(kind));
    ASSERT_TRUE(parsed.has_value()) << api::to_string(kind);
    EXPECT_EQ(*parsed, kind);
  }
  EXPECT_FALSE(api::parse_execution_kind("quantum").has_value());
  EXPECT_STREQ(api::to_string(api::ObserverGranularity::kNone), "none");
  EXPECT_STREQ(api::to_string(api::ObserverGranularity::kPerRound),
               "per-round");
}

TEST(ApiCapabilities, ConsumedKnobNamesAreStableAndOrdered) {
  api::Capabilities caps;
  EXPECT_TRUE(api::consumed_knobs(caps).empty());
  caps.consumes_fault_plan = true;
  caps.consumes_threads = true;
  caps.consumes_delivery_mode = true;
  const std::vector<std::string_view> expected{"mode", "faults", "threads"};
  EXPECT_EQ(api::consumed_knobs(caps), expected);
}

TEST(ApiCapabilities, BuiltinDescriptorsAreTruthful) {
  const auto& registry = api::ProtocolRegistry::instance();
  const auto caps = [&](std::string_view name) -> const api::Capabilities& {
    return registry.entry(name).capabilities;
  };
  // The eight built-ins by key, not entries(): other tests register
  // custom protocols with arbitrary descriptors in this process.
  const std::vector<std::string_view> builtins{
      api::kProtocolBz,        api::kProtocolPeeling,
      api::kProtocolOneToOne,  api::kProtocolOneToMany,
      api::kProtocolBsp,       api::kProtocolOneToManyPar,
      api::kProtocolBspPar,    api::kProtocolBspAsync};
  // Sequential baselines: consume nothing, stream nothing.
  for (const auto key : {api::kProtocolBz, api::kProtocolPeeling}) {
    EXPECT_EQ(caps(key).execution, api::ExecutionKind::kSequential) << key;
    EXPECT_TRUE(api::consumed_knobs(caps(key)).empty()) << key;
    EXPECT_EQ(caps(key).observer, api::ObserverGranularity::kNone) << key;
    EXPECT_TRUE(caps(key).deterministic_extras) << key;
  }
  // The channel protocols are the only fault-plan consumers.
  for (const auto key : builtins) {
    const bool is_channel = key == api::kProtocolOneToOne ||
                            key == api::kProtocolOneToMany;
    EXPECT_EQ(caps(key).consumes_fault_plan, is_channel) << key;
  }
  // §3.2.1 comm policy: exactly the one-to-many family.
  for (const auto key : builtins) {
    const bool flushes_hosts = key == api::kProtocolOneToMany ||
                               key == api::kProtocolOneToManyPar;
    EXPECT_EQ(caps(key).consumes_comm_policy, flushes_hosts) << key;
  }
  // Real-thread family: consumes threads, executes on real workers.
  for (const auto key : {api::kProtocolOneToManyPar, api::kProtocolBspPar}) {
    EXPECT_EQ(caps(key).execution, api::ExecutionKind::kThreadedRounds)
        << key;
    EXPECT_TRUE(caps(key).consumes_threads) << key;
    EXPECT_TRUE(caps(key).deterministic_extras) << key;
  }
  // The async runtime: round-free (no observer stream), the only
  // built-in with a schedule-dependent profile, and the only consumer of
  // the scheduling-policy knob.
  EXPECT_EQ(caps(api::kProtocolBspAsync).execution,
            api::ExecutionKind::kAsync);
  EXPECT_EQ(caps(api::kProtocolBspAsync).observer,
            api::ObserverGranularity::kNone);
  EXPECT_FALSE(caps(api::kProtocolBspAsync).deterministic_extras);
  for (const auto key : builtins) {
    EXPECT_EQ(caps(key).consumes_sched, key == api::kProtocolBspAsync)
        << key;
  }
  for (const auto key : builtins) {
    if (key != api::kProtocolBspAsync) {
      EXPECT_TRUE(caps(key).deterministic_extras) << key;
    }
  }
  // Every simulated / threaded-rounds runtime streams per-round events.
  for (const auto key :
       {api::kProtocolOneToOne, api::kProtocolOneToMany, api::kProtocolBsp,
        api::kProtocolOneToManyPar, api::kProtocolBspPar}) {
    EXPECT_EQ(caps(key).observer, api::ObserverGranularity::kPerRound)
        << key;
  }
}

// ---------------------------------------------------------------------------
// Report timing invariant
// ---------------------------------------------------------------------------

TEST(ApiReport, ElapsedEqualsSetupPlusRunWherePhaseTimingsExist) {
  // The satellite fix for the old double-counting ambiguity: where the
  // extras carry phase timings, elapsed_ms is EXACTLY their sum (the
  // phases partition the elapsed time), for one-shot and warm runs alike.
  const Graph g = gen::barabasi_albert(300, 3, 9);
  api::RunOptions options;
  options.threads = 2;
  options.num_hosts = 4;
  for (const auto protocol :
       {api::kProtocolOneToManyPar, api::kProtocolBspPar,
        api::kProtocolBspAsync}) {
    const auto report = api::decompose(g, protocol, options);
    if (const auto* par = std::get_if<api::ParExtras>(&report.extras)) {
      EXPECT_EQ(report.elapsed_ms, par->setup_ms + par->run_ms) << protocol;
      EXPECT_GT(par->setup_ms, 0.0) << protocol;
    } else {
      const auto& async = std::get<api::AsyncExtras>(report.extras);
      EXPECT_EQ(report.elapsed_ms, async.setup_ms + async.run_ms)
          << protocol;
      EXPECT_GT(async.setup_ms, 0.0) << protocol;
    }
  }
}

TEST(ApiReport, ElapsedInvariantHoldsUnderConcurrentOneShots) {
  // The phase-timing partition must survive concurrency: one-shot
  // decompose() calls racing on separate threads still each report
  // elapsed_ms == setup_ms + run_ms (each call derives and times its
  // own state; nothing timing-related is shared).
  const Graph g = gen::barabasi_albert(250, 3, 15);
  api::RunOptions options;
  options.threads = 2;
  options.num_hosts = 4;
  for (const auto protocol :
       {api::kProtocolOneToManyPar, api::kProtocolBspPar,
        api::kProtocolBspAsync}) {
    constexpr unsigned kCallers = 3;
    std::vector<api::DecomposeReport> reports(kCallers);
    std::vector<std::thread> pool;
    pool.reserve(kCallers);
    for (unsigned c = 0; c < kCallers; ++c) {
      pool.emplace_back([&, c] {
        reports[c] = api::decompose(g, protocol, options);
      });
    }
    for (auto& t : pool) t.join();
    for (const auto& report : reports) {
      if (const auto* par = std::get_if<api::ParExtras>(&report.extras)) {
        EXPECT_EQ(report.elapsed_ms, par->setup_ms + par->run_ms) << protocol;
      } else {
        const auto& async = std::get<api::AsyncExtras>(report.extras);
        EXPECT_EQ(report.elapsed_ms, async.setup_ms + async.run_ms)
            << protocol;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Enum string round-trips
// ---------------------------------------------------------------------------

TEST(ApiEnums, DeliveryModeRoundTrips) {
  for (const auto mode : {sim::DeliveryMode::kSynchronous,
                          sim::DeliveryMode::kCycleRandomOrder}) {
    const auto parsed = api::parse_delivery_mode(api::to_string(mode));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, mode);
  }
  EXPECT_EQ(api::parse_delivery_mode("synchronous"),
            sim::DeliveryMode::kSynchronous);
  EXPECT_FALSE(api::parse_delivery_mode("async").has_value());
}

TEST(ApiEnums, CommPolicyRoundTrips) {
  for (const auto policy :
       {api::CommPolicy::kBroadcast, api::CommPolicy::kPointToPoint}) {
    const auto parsed = api::parse_comm_policy(api::to_string(policy));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, policy);
  }
  EXPECT_EQ(api::parse_comm_policy("p2p"), api::CommPolicy::kPointToPoint);
  EXPECT_FALSE(api::parse_comm_policy("carrier-pigeon").has_value());
}

TEST(ApiEnums, SchedPolicyRoundTrips) {
  for (const auto policy :
       {api::SchedPolicy::kLifo, api::SchedPolicy::kDelta,
        api::SchedPolicy::kBound}) {
    const auto parsed = api::parse_sched_policy(api::to_string(policy));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, policy);
  }
  EXPECT_FALSE(api::parse_sched_policy("fifo").has_value());
}

TEST(ApiEnums, AssignmentPolicyRoundTrips) {
  for (const auto policy :
       {api::AssignmentPolicy::kModulo, api::AssignmentPolicy::kBlock,
        api::AssignmentPolicy::kRandom, api::AssignmentPolicy::kHash}) {
    const auto parsed = api::parse_assignment_policy(api::to_string(policy));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, policy);
  }
  EXPECT_FALSE(api::parse_assignment_policy("metis").has_value());
}

// ---------------------------------------------------------------------------
// Validation error paths
// ---------------------------------------------------------------------------

TEST(ApiValidate, ReportsEveryProblem) {
  api::DecomposeRequest request;  // null graph, default protocol "bz"
  request.protocol = "quantum";
  request.options.num_hosts = 0;
  request.options.faults.duplicate_probability = 1.5;
  const auto problems = api::validate(request);
  ASSERT_EQ(problems.size(), 4U);  // graph, protocol, hosts, dup-prob
  EXPECT_NE(problems[0].find("graph"), std::string::npos);
  EXPECT_NE(problems[1].find("quantum"), std::string::npos);
  EXPECT_NE(problems[2].find("num_hosts"), std::string::npos);
  EXPECT_NE(problems[3].find("duplicate_probability"), std::string::npos);
}

TEST(ApiValidate, ZeroNodeGraphIsRejectedByEveryProtocol) {
  const Graph g;
  for (const auto& name : api::ProtocolRegistry::instance().names()) {
    api::DecomposeRequest request;
    request.graph = &g;
    request.protocol = name;
    const auto problems = api::validate(request);
    ASSERT_EQ(problems.size(), 1U) << name;
    EXPECT_EQ(problems[0], "graph must have at least one node") << name;
    EXPECT_THROW((void)api::decompose(request), util::CheckError) << name;
  }
}

TEST(ApiValidate, FaultPlanRejectedForFaultFreeRuntimes) {
  const Graph g = gen::clique(4);
  api::RunOptions options;
  options.faults.max_extra_delay = 2;
  for (const auto protocol :
       {api::kProtocolBz, api::kProtocolPeeling, api::kProtocolBsp,
        api::kProtocolBspAsync}) {
    api::DecomposeRequest request;
    request.graph = &g;
    request.protocol = std::string(protocol);
    request.options = options;
    const auto problems = api::validate(request);
    ASSERT_EQ(problems.size(), 1U) << protocol;
    EXPECT_NE(problems[0].find("fault"), std::string::npos) << protocol;
    EXPECT_THROW((void)api::decompose(request), util::CheckError)
        << protocol;
  }
  // The round-engine protocols accept the same plan.
  for (const auto protocol :
       {api::kProtocolOneToOne, api::kProtocolOneToMany}) {
    const auto report = api::decompose(g, protocol, options);
    EXPECT_TRUE(report.traffic.converged) << protocol;
  }
}

TEST(ApiValidate, ChannellessProtocolsRejectCommPolicy) {
  // The §3.2.1 comm policy shapes host-to-host flushes; for a runtime
  // with no such channels (sequential baselines, the BSP ports' shared
  // tables, the async estimate table) a broadcast policy would be a
  // silent no-op, so validate() must refuse it with a pointer to the
  // protocols that do consume it.
  const Graph g = gen::clique(4);
  api::DecomposeRequest request;
  request.graph = &g;
  request.options.comm = api::CommPolicy::kBroadcast;
  for (const auto protocol :
       {api::kProtocolBz, api::kProtocolPeeling, api::kProtocolOneToOne,
        api::kProtocolBsp, api::kProtocolBspPar, api::kProtocolBspAsync}) {
    request.protocol = std::string(protocol);
    const auto problems = api::validate(request);
    ASSERT_EQ(problems.size(), 1U) << protocol;
    EXPECT_NE(problems[0].find("broadcast"), std::string::npos) << protocol;
    EXPECT_NE(problems[0].find("one-to-many"), std::string::npos)
        << protocol;
    EXPECT_THROW((void)api::decompose(request), util::CheckError)
        << protocol;
  }
  // The protocols that flush host-to-host keep accepting it.
  for (const auto protocol :
       {api::kProtocolOneToMany, api::kProtocolOneToManyPar}) {
    request.protocol = std::string(protocol);
    EXPECT_TRUE(api::validate(request).empty()) << protocol;
  }
  // And the default (point-to-point) stays valid everywhere.
  request.protocol = std::string(api::kProtocolBspAsync);
  request.options.comm = api::CommPolicy::kPointToPoint;
  EXPECT_TRUE(api::validate(request).empty());
}

TEST(ApiValidate, AsyncFaultAndCommProblemsAccumulate) {
  const Graph g = gen::clique(4);
  api::DecomposeRequest request;
  request.graph = &g;
  request.protocol = std::string(api::kProtocolBspAsync);
  request.options.faults.duplicate_probability = 0.5;
  request.options.comm = api::CommPolicy::kBroadcast;
  const auto problems = api::validate(request);
  ASSERT_EQ(problems.size(), 2U);
  EXPECT_NE(problems[0].find("channel-fault"), std::string::npos);
  EXPECT_NE(problems[1].find("broadcast"), std::string::npos);
}

TEST(ApiValidate, ThreadsRejectedForPoollessRuntimes) {
  // --threads on a runtime with no worker pool would silently report
  // single-threaded results as if a pool had run; the capability pass
  // turns that into an actionable error naming the consumers.
  const Graph g = gen::clique(4);
  api::DecomposeRequest request;
  request.graph = &g;
  request.options.threads = 4;
  for (const auto protocol :
       {api::kProtocolBz, api::kProtocolPeeling, api::kProtocolOneToOne,
        api::kProtocolOneToMany, api::kProtocolBsp}) {
    request.protocol = std::string(protocol);
    const auto problems = api::validate(request);
    ASSERT_EQ(problems.size(), 1U) << protocol;
    EXPECT_NE(problems[0].find("--threads"), std::string::npos) << protocol;
    EXPECT_NE(problems[0].find("bsp-par"), std::string::npos) << protocol;
  }
  for (const auto protocol :
       {api::kProtocolOneToManyPar, api::kProtocolBspPar,
        api::kProtocolBspAsync}) {
    request.protocol = std::string(protocol);
    EXPECT_TRUE(api::validate(request).empty()) << protocol;
  }
}

TEST(ApiValidate, SchedRejectedForFixedScheduleRuntimes) {
  // --sched picks the async pool's pop order; aimed at any other runtime
  // it would silently report results as if the policy had been honored.
  const Graph g = gen::clique(4);
  api::DecomposeRequest request;
  request.graph = &g;
  request.options.sched = api::SchedPolicy::kBound;
  for (const auto protocol :
       {api::kProtocolBz, api::kProtocolPeeling, api::kProtocolOneToOne,
        api::kProtocolOneToMany, api::kProtocolBsp,
        api::kProtocolOneToManyPar, api::kProtocolBspPar}) {
    request.protocol = std::string(protocol);
    const auto problems = api::validate(request);
    ASSERT_EQ(problems.size(), 1U) << protocol;
    EXPECT_NE(problems[0].find("--sched"), std::string::npos) << protocol;
    EXPECT_NE(problems[0].find("bsp-async"), std::string::npos) << protocol;
  }
  for (const auto sched : {api::SchedPolicy::kLifo, api::SchedPolicy::kDelta,
                           api::SchedPolicy::kBound}) {
    request.protocol = std::string(api::kProtocolBspAsync);
    request.options.sched = sched;
    EXPECT_TRUE(api::validate(request).empty())
        << api::to_string(sched);
  }
}

TEST(ApiValidate, DeliveryModeRejectedForScheduleFreeRuntimes) {
  // --mode shapes the round simulator's delivery schedule; aimed at a
  // runtime with no such schedule it would silently report results as if
  // synchronous delivery had been simulated.
  const Graph g = gen::clique(4);
  api::DecomposeRequest request;
  request.graph = &g;
  request.options.mode = sim::DeliveryMode::kSynchronous;
  for (const auto protocol :
       {api::kProtocolBz, api::kProtocolPeeling, api::kProtocolBsp,
        api::kProtocolBspPar, api::kProtocolBspAsync}) {
    request.protocol = std::string(protocol);
    if (protocol == api::kProtocolBspPar ||
        protocol == api::kProtocolBspAsync) {
      request.options.threads = 2;  // keep the cell otherwise valid
    } else {
      request.options.threads = 0;
    }
    const auto problems = api::validate(request);
    ASSERT_EQ(problems.size(), 1U) << protocol;
    EXPECT_NE(problems[0].find("--mode"), std::string::npos) << protocol;
    EXPECT_NE(problems[0].find("one-to-one"), std::string::npos) << protocol;
  }
  // The simulated channel protocols keep accepting it.
  request.options.threads = 0;
  for (const auto protocol :
       {api::kProtocolOneToOne, api::kProtocolOneToMany}) {
    request.protocol = std::string(protocol);
    EXPECT_TRUE(api::validate(request).empty()) << protocol;
  }
}

TEST(ApiValidate, CustomProtocolRulesDeriveFromItsCapabilities) {
  // validate() has never heard of this protocol by name — every rule it
  // applies must come from the registered descriptor. A consume-nothing
  // descriptor rejects all three exclusive knobs at once; a descriptor
  // that claims them accepts the same request.
  auto& registry = api::ProtocolRegistry::instance();
  if (!registry.contains("test-consumes-nothing")) {
    registry.add({"test-consumes-nothing", "n/a", "capability negative",
                  api::Capabilities{}, constant_preparer(0)});
  }
  if (!registry.contains("test-consumes-all")) {
    api::Capabilities caps;
    caps.consumes_fault_plan = true;
    caps.consumes_comm_policy = true;
    caps.consumes_threads = true;
    registry.add({"test-consumes-all", "n/a", "capability positive", caps,
                  constant_preparer(0)});
  }
  const Graph g = gen::clique(4);
  api::DecomposeRequest request;
  request.graph = &g;
  request.options.faults.max_extra_delay = 1;
  request.options.comm = api::CommPolicy::kBroadcast;
  request.options.threads = 2;
  request.protocol = "test-consumes-nothing";
  EXPECT_EQ(api::validate(request).size(), 3U);
  request.protocol = "test-consumes-all";
  EXPECT_TRUE(api::validate(request).empty());
}

TEST(ApiValidate, DecomposeThrowsOnUnknownProtocol) {
  const Graph g = gen::clique(4);
  EXPECT_THROW((void)api::decompose(g, "simulated-annealing"),
               util::CheckError);
}

TEST(ApiValidate, ValidRequestHasNoProblems) {
  const Graph g = gen::clique(4);
  api::DecomposeRequest request;
  request.graph = &g;
  request.protocol = "one-to-many";
  EXPECT_TRUE(api::validate(request).empty());
}

// ---------------------------------------------------------------------------
// Unified progress stream
// ---------------------------------------------------------------------------

TEST(ApiProgress, StreamsRoundsEstimatesAndMessages) {
  const Graph g = gen::barabasi_albert(150, 3, 21);
  const auto truth = seq::coreness_bz(g);
  for (const auto protocol :
       {api::kProtocolOneToOne, api::kProtocolOneToMany, api::kProtocolBsp}) {
    std::uint64_t last_round = 0;
    std::uint64_t last_messages = 0;
    std::size_t events = 0;
    const auto report = api::decompose(
        g, protocol, {}, [&](const api::ProgressEvent& event) {
          EXPECT_EQ(event.round, last_round + 1) << protocol;
          EXPECT_EQ(event.estimates.size(), g.num_nodes()) << protocol;
          EXPECT_GE(event.messages, last_messages) << protocol;
          for (NodeId u = 0; u < g.num_nodes(); ++u) {
            EXPECT_GE(event.estimates[u], truth[u])
                << protocol << " node " << u;
          }
          last_round = event.round;
          last_messages = event.messages;
          ++events;
        });
    EXPECT_GT(events, 0U) << protocol;
    EXPECT_EQ(last_messages, report.traffic.total_messages) << protocol;
  }
}

TEST(ApiProgress, SequentialBaselinesEmitNoEvents) {
  const Graph g = gen::clique(6);
  std::size_t events = 0;
  const auto report = api::decompose(
      g, api::kProtocolBz, {},
      [&](const api::ProgressEvent&) { ++events; });
  EXPECT_EQ(events, 0U);
  EXPECT_EQ(report.coreness, std::vector<NodeId>(6, 5));
}

// ---------------------------------------------------------------------------
// CLI option parsing
// ---------------------------------------------------------------------------

TEST(ApiCliOptions, ParsesTheSharedFlagSet) {
  const util::Args args({"decompose", "--mode", "sync", "--seed", "9",
                         "--max-rounds", "77", "--hosts", "32",
                         "--assignment", "hash", "--comm", "broadcast",
                         "--sched", "bound", "--max-extra-delay", "3",
                         "--dup-prob", "0.25", "--no-targeted-send"});
  const auto options = api::run_options_from_args(args);
  EXPECT_EQ(options.mode, sim::DeliveryMode::kSynchronous);
  EXPECT_EQ(options.seed, 9U);
  EXPECT_EQ(options.max_rounds, 77U);
  EXPECT_EQ(options.num_hosts, 32U);
  EXPECT_EQ(options.assignment, api::AssignmentPolicy::kHash);
  EXPECT_EQ(options.comm, api::CommPolicy::kBroadcast);
  EXPECT_EQ(options.sched, api::SchedPolicy::kBound);
  EXPECT_EQ(options.faults.max_extra_delay, 3U);
  EXPECT_DOUBLE_EQ(options.faults.duplicate_probability, 0.25);
  EXPECT_FALSE(options.targeted_send);
}

TEST(ApiCliOptions, DefaultsSurviveWhenFlagsAbsent) {
  const util::Args args({"decompose"});
  const auto options = api::run_options_from_args(args);
  EXPECT_EQ(options.mode, sim::DeliveryMode::kCycleRandomOrder);
  EXPECT_EQ(options.seed, 1U);
  EXPECT_EQ(options.num_hosts, 16U);
  EXPECT_EQ(options.sched, api::SchedPolicy::kLifo);
  EXPECT_TRUE(options.targeted_send);
}

TEST(ApiCliOptions, BadEnumValueThrowsActionably) {
  const util::Args args({"decompose", "--mode", "warp"});
  try {
    (void)api::run_options_from_args(args);
    FAIL() << "expected CheckError";
  } catch (const util::CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("warp"), std::string::npos) << what;
    EXPECT_NE(what.find("cycle"), std::string::npos) << what;
  }
}

}  // namespace
}  // namespace kcore
