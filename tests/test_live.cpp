// The live service's correctness contract (src/live):
//  * exactness — after EVERY applied batch the published coreness is
//    bit-identical to a from-scratch bz decomposition of the current
//    topology, pinned across graph families × seeds × thread counts ×
//    scheduling policies (100+ churn sequences);
//  * stream parity — replaying one batch log through live::Service and
//    through core::DynamicKCore::apply_batch yields identical tables at
//    every batch boundary (the shared EdgeUpdate type's whole point);
//  * snapshot consistency — concurrent readers only ever observe
//    detector-confirmed quiescent epochs (exercised under TSan in CI);
//  * degenerate updates — self-loops, duplicates, unknown nodes and
//    transient churn are counted, not applied, and never corrupt the
//    table;
//  * metrics parity — the live.* counters equal the sums over the
//    returned ApplyResults (including the wal/checkpoint counters added
//    with durability);
//  * graceful degradation — provisional snapshots published past the
//    repair deadline are sound upper bounds (Theorem 1) and the final
//    publish always lands last.
#include "live/service.h"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <tuple>
#include <variant>
#include <vector>

#include "api/api.h"
#include "core/dynamic.h"
#include "graph/edge_list.h"
#include "graph/generators.h"
#include "live/live_graph.h"
#include "live/repair.h"
#include "obs/options.h"
#include "seq/kcore_seq.h"
#include "util/rng.h"
#include "util/storage.h"

namespace kcore::live {
namespace {

namespace gen = kcore::graph::gen;
using core::SchedPolicy;
using graph::EdgeOp;
using graph::EdgeUpdate;
using graph::Graph;
using graph::NodeId;

// --- service basics ---------------------------------------------------------

TEST(LiveService, InitialSnapshotMatchesBaseline) {
  const Graph g = gen::barabasi_albert(200, 3, 5);
  const Service service(g);
  const auto snapshot = service.query();
  EXPECT_EQ(snapshot->epoch, 0U);
  EXPECT_EQ(snapshot->num_nodes, g.num_nodes());
  EXPECT_EQ(snapshot->num_edges, g.num_edges());
  EXPECT_EQ(snapshot->coreness, seq::coreness_bz(g));
  EXPECT_GT(service.initial_stats().relaxations, 0U);
}

TEST(LiveService, EveryApplyPublishesExactlyOneEpoch) {
  Service service(gen::cycle(6));
  EXPECT_EQ(service.query()->epoch, 0U);
  service.apply(std::vector<EdgeUpdate>{{EdgeOp::kInsert, 0, 3}});
  EXPECT_EQ(service.query()->epoch, 1U);
  // Even an empty batch advances the epoch (the contract queries pin
  // their reads to).
  const ApplyResult result = service.apply(std::vector<EdgeUpdate>{});
  EXPECT_EQ(result.epoch, 2U);
  EXPECT_EQ(service.query()->epoch, 2U);
  EXPECT_EQ(result.repair.relaxations, 0U);
  EXPECT_EQ(result.repair.seeded, 0U);
}

TEST(LiveService, DegenerateUpdatesAreCountedNotApplied) {
  Service service(gen::clique(5));
  const auto before = service.query();
  const std::vector<EdgeUpdate> batch{
      {EdgeOp::kInsert, 2, 2},    // self-loop -> ignored
      {EdgeOp::kInsert, 0, 1},    // duplicate of an existing edge
      {EdgeOp::kInsert, 0, 99},   // unknown node -> rejected
      {EdgeOp::kRemove, 99, 1},   // unknown node -> rejected
      {EdgeOp::kInsert, 2, 3},    // transient: removed again below
      {EdgeOp::kRemove, 2, 3},    // net no-op pair (edge existed!)
  };
  const ApplyResult result = service.apply(batch);
  EXPECT_EQ(result.rejected_updates, 2U);
  EXPECT_EQ(result.applied_inserts, 0U);
  EXPECT_EQ(result.applied_removes, 1U);  // {2,3} existed in the clique
  EXPECT_EQ(result.ignored_updates, 3U);
  const auto after = service.query();
  EXPECT_EQ(after->epoch, before->epoch + 1);
  EXPECT_EQ(after->coreness, seq::coreness_bz(service.graph().snapshot()));
}

TEST(LiveService, TopologyVersionCountsAppliedMutations) {
  Service service(gen::cycle(5));
  EXPECT_EQ(service.query()->topology_version, 0U);
  service.apply(std::vector<EdgeUpdate>{{EdgeOp::kInsert, 0, 2},
                                        {EdgeOp::kRemove, 3, 4},
                                        {EdgeOp::kInsert, 0, 2}});
  EXPECT_EQ(service.query()->topology_version, 2U);
}

// --- exactness under churn: families × seeds × threads × scheds -------------

struct LiveChurnCase {
  const char* name;
  Graph (*make)(std::uint64_t seed);
};

Graph churn_er(std::uint64_t s) { return gen::erdos_renyi_gnm(120, 300, s); }
Graph churn_ba(std::uint64_t s) { return gen::barabasi_albert(100, 3, s); }
Graph churn_grid(std::uint64_t) { return gen::grid(8, 10); }
Graph churn_cliques(std::uint64_t) {
  const std::array<NodeId, 3> sizes{5, 8, 12};
  return gen::disjoint_cliques(sizes);
}

class LiveChurn
    : public ::testing::TestWithParam<
          std::tuple<LiveChurnCase, unsigned, SchedPolicy>> {};

std::vector<EdgeUpdate> random_batch(util::Xoshiro256& rng, NodeId n,
                                     int size) {
  std::vector<EdgeUpdate> batch;
  for (int i = 0; i < size; ++i) {
    const auto u = static_cast<NodeId>(rng.next_below(n));
    const auto v = static_cast<NodeId>(rng.next_below(n));
    batch.push_back(
        {rng.next_bool(0.55) ? EdgeOp::kInsert : EdgeOp::kRemove, u, v});
  }
  return batch;
}

TEST_P(LiveChurn, ExactAfterEveryBatch) {
  const auto& [family, threads, sched] = GetParam();
  // 3 seeds × 10 batches per configuration; across the 36 instantiated
  // configurations that is 100+ distinct churn sequences, each checked
  // at every batch boundary.
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const Graph g = family.make(seed);
    ServiceOptions options;
    options.threads = threads;
    options.sched = sched;
    Service service(g, options);
    util::Xoshiro256 rng(seed * 977 + threads);
    for (int step = 0; step < 10; ++step) {
      const auto batch = random_batch(rng, g.num_nodes(), 8);
      service.apply(batch);
      const auto truth = seq::coreness_bz(service.graph().snapshot());
      ASSERT_EQ(service.query()->coreness, truth)
          << family.name << " seed " << seed << " step " << step
          << " threads " << threads << " sched "
          << core::to_string(sched);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, LiveChurn,
    ::testing::Combine(
        ::testing::Values(LiveChurnCase{"er", churn_er},
                          LiveChurnCase{"ba", churn_ba},
                          LiveChurnCase{"grid", churn_grid},
                          LiveChurnCase{"cliques", churn_cliques}),
        ::testing::Values(1U, 2U, 4U),
        ::testing::Values(SchedPolicy::kLifo, SchedPolicy::kBound)),
    [](const auto& info) {
      return std::string(std::get<0>(info.param).name) + "_t" +
             std::to_string(std::get<1>(info.param)) + "_" +
             std::string(core::to_string(std::get<2>(info.param)));
    });

TEST(LiveService, OneWorkerChurnRelaxationsArePinned) {
  // The live half of the one-worker schedule pin: the relaxations a
  // one-worker Service spends over a fixed seeded churn trace, summed
  // over its batches. Recorded from the pool-backed kernel, whose
  // support counters carried over between repairs; the histogram kernel
  // rebuilds its histograms every run and must spend the same work.
  const Graph g = gen::barabasi_albert(3000, 4, 21);
  for (const SchedPolicy sched : {SchedPolicy::kLifo, SchedPolicy::kBound}) {
    ServiceOptions options;
    options.threads = 1;
    options.sched = sched;
    Service service(g, options);
    util::Xoshiro256 rng(5);
    std::uint64_t relaxations = 0;
    for (int step = 0; step < 40; ++step) {
      std::vector<EdgeUpdate> batch;
      while (batch.size() < 128) {
        const auto u = static_cast<NodeId>(rng.next_below(g.num_nodes()));
        if (rng.next_bool(0.5)) {
          const auto v = static_cast<NodeId>(rng.next_below(g.num_nodes()));
          batch.push_back({EdgeOp::kInsert, u, v});
          continue;
        }
        const auto nbrs = service.graph().neighbors(u);
        if (nbrs.empty()) continue;
        batch.push_back(
            {EdgeOp::kRemove, u, nbrs[rng.next_below(nbrs.size())]});
      }
      relaxations += service.apply(batch).repair.relaxations;
    }
    EXPECT_EQ(relaxations, 13983U) << core::to_string(sched);
    EXPECT_EQ(service.query()->coreness,
              seq::coreness_bz(service.graph().snapshot()));
  }
}

// --- parity with the synchronous simulator path -----------------------------

TEST(LiveService, ReplayMatchesDynamicKCoreOnTheSameLog) {
  const Graph g = gen::erdos_renyi_gnm(150, 380, 3);
  util::Xoshiro256 rng(41);
  std::vector<graph::EdgeUpdateBatch> log;
  for (int b = 0; b < 12; ++b) {
    std::vector<EdgeUpdate> batch;
    for (int i = 0; i < 10; ++i) {
      const auto u = static_cast<NodeId>(rng.next_below(g.num_nodes()));
      const auto v = static_cast<NodeId>(rng.next_below(g.num_nodes()));
      batch.push_back(
          {rng.next_bool(0.5) ? EdgeOp::kInsert : EdgeOp::kRemove, u, v});
    }
    log.push_back({.updates = std::move(batch)});
  }

  ServiceOptions options;
  options.threads = 2;
  Service service(g, options);
  core::DynamicKCore simulator(g);
  for (std::size_t b = 0; b < log.size(); ++b) {
    service.apply(log[b].updates);
    simulator.apply_batch(log[b].updates);
    ASSERT_EQ(service.query()->coreness, simulator.coreness())
        << "batch " << b;
    ASSERT_EQ(service.graph().edges(), simulator.graph().edges())
        << "batch " << b;
  }
}

// --- snapshot consistency under concurrent readers --------------------------

TEST(LiveService, ConcurrentReadersOnlySeeQuiescentEpochs) {
  const Graph g = gen::erdos_renyi_gnm(200, 500, 9);
  constexpr int kBatches = 25;

  // Precompute the exact coreness of every epoch by replaying the same
  // log offline — the readers then validate any snapshot they catch
  // against the table its epoch promises.
  util::Xoshiro256 rng(77);
  std::vector<graph::EdgeUpdateBatch> log;
  for (int b = 0; b < kBatches; ++b) {
    std::vector<EdgeUpdate> batch;
    for (int i = 0; i < 6; ++i) {
      const auto u = static_cast<NodeId>(rng.next_below(g.num_nodes()));
      const auto v = static_cast<NodeId>(rng.next_below(g.num_nodes()));
      batch.push_back(
          {rng.next_bool(0.5) ? EdgeOp::kInsert : EdgeOp::kRemove, u, v});
    }
    log.push_back({.updates = std::move(batch)});
  }
  std::vector<std::vector<NodeId>> expected;
  {
    core::DynamicKCore replica(g);
    expected.push_back(replica.coreness());  // epoch 0
    for (std::size_t b = 0; b < log.size(); ++b) {
      replica.apply_batch(log[b].updates);
      expected.push_back(replica.coreness());
    }
  }

  ServiceOptions options;
  options.threads = 2;
  Service service(g, options);
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> violations{0};
  std::atomic<std::uint64_t> reads{0};
  std::vector<std::thread> readers;
  readers.reserve(4);
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&] {
      std::uint64_t last_epoch = 0;
      while (!stop.load(std::memory_order_acquire)) {
        const auto snapshot = service.query();
        reads.fetch_add(1, std::memory_order_relaxed);
        // Epochs move forward only, and every published table is the
        // exact coreness its epoch number promises — no reader can ever
        // catch a half-repaired mix.
        if (snapshot->epoch < last_epoch ||
            snapshot->epoch >= expected.size() ||
            snapshot->coreness != expected[snapshot->epoch]) {
          violations.fetch_add(1, std::memory_order_relaxed);
        }
        last_epoch = snapshot->epoch;
      }
    });
  }
  for (std::size_t b = 0; b < log.size(); ++b) {
    service.apply(log[b].updates);
  }
  stop.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();
  EXPECT_EQ(violations.load(), 0U);
  EXPECT_GT(reads.load(), 0U);
  EXPECT_EQ(service.query()->epoch, static_cast<std::uint64_t>(kBatches));
}

// --- metrics parity ---------------------------------------------------------

TEST(LiveService, MetricsMatchApplyResults) {
  ServiceOptions options;
  options.metrics = true;
  Service service(gen::barabasi_albert(120, 3, 19), options);
  if (!service.metrics_enabled()) {
    GTEST_SKIP() << "KCORE_OBS=OFF build: the live.* registry compiles out";
  }
  util::Xoshiro256 rng(53);
  std::uint64_t relaxations = service.initial_stats().relaxations;
  std::uint64_t seeded = service.initial_stats().seeded;
  std::uint64_t raised = 0;
  std::uint64_t region_visited = 0;
  std::uint64_t rejected = 0;
  std::uint64_t repairs = 1;  // the initial convergence
  const int applies = 8;
  for (int b = 0; b < applies; ++b) {
    auto batch = random_batch(rng, 120, 6);
    batch.push_back({EdgeOp::kInsert, 0, 5000});  // rejected every time
    const ApplyResult result = service.apply(batch);
    relaxations += result.repair.relaxations;
    seeded += result.repair.seeded;
    raised += result.repair.raised;
    region_visited += result.repair.region_visited;
    rejected += result.rejected_updates;
    if (result.repair.seeded > 0) ++repairs;
  }
  const obs::MetricsSnapshot snapshot = service.metrics();
  EXPECT_EQ(snapshot.value("live.epoch_publishes"),
            static_cast<std::uint64_t>(applies) + 1);
  EXPECT_EQ(snapshot.value("live.relaxations"), relaxations);
  EXPECT_EQ(snapshot.value("live.seeded_nodes"), seeded);
  EXPECT_EQ(snapshot.value("live.raised_nodes"), raised);
  EXPECT_EQ(snapshot.value("live.region_visited"), region_visited);
  EXPECT_GT(region_visited, 0U);
  EXPECT_EQ(snapshot.value("live.rejected_updates"), rejected);
  EXPECT_EQ(snapshot.value("live.repairs"), repairs);
  EXPECT_GT(rejected, 0U);
}

TEST(LiveService, MetricsOffByDefault) {
  const Service service(gen::cycle(4));
  EXPECT_FALSE(service.metrics_enabled());
  EXPECT_EQ(service.metrics().value("live.repairs"), 0U);
}

// --- durability metrics parity ----------------------------------------------

TEST(LiveService, DurabilityMetricsMatchApplyResults) {
  util::MemStorage fs;
  ServiceOptions options;
  options.metrics = true;
  options.threads = 1;
  DurabilityOptions durability;
  durability.dir = "state";
  durability.storage = &fs;
  durability.checkpoint_every = 3;
  Service service(gen::barabasi_albert(120, 3, 31), options, durability);
  if (!service.metrics_enabled()) {
    GTEST_SKIP() << "KCORE_OBS=OFF build: the live.* registry compiles out";
  }

  util::Xoshiro256 rng(67);
  std::uint64_t wal_bytes = 0;
  std::uint64_t checkpoints = 1;  // the constructor's initial checkpoint
  const int applies = 8;
  for (int b = 0; b < applies; ++b) {
    const ApplyResult result = service.apply(random_batch(rng, 120, 6));
    ASSERT_GT(result.wal_bytes, 0U);  // every apply logs exactly one record
    ASSERT_FALSE(result.checkpoint_failed);
    wal_bytes += result.wal_bytes;
    if (result.checkpointed) ++checkpoints;
  }
  service.checkpoint();  // the explicit barrier counts too
  ++checkpoints;

  const obs::MetricsSnapshot snapshot = service.metrics();
  EXPECT_EQ(snapshot.value("live.wal_batches"),
            static_cast<std::uint64_t>(applies));
  EXPECT_EQ(snapshot.value("live.wal_bytes"), wal_bytes);
  EXPECT_EQ(snapshot.value("live.checkpoints"), checkpoints);
  EXPECT_EQ(snapshot.value("live.checkpoint_failures"), 0U);
  EXPECT_GE(checkpoints, 4U);  // cadence 3 over 8 applies fired at least twice
}

// --- graceful degradation: provisional snapshots are sound upper bounds ------

TEST(LiveService, ProvisionalSnapshotsAreSoundUpperBounds) {
  const graph::Graph g = gen::barabasi_albert(600, 5, 13);
  constexpr int kBatches = 12;
  util::Xoshiro256 rng(83);
  std::vector<graph::EdgeUpdateBatch> log;
  for (int b = 0; b < kBatches; ++b) {
    std::vector<EdgeUpdate> batch;
    for (int i = 0; i < 10; ++i) {
      const auto u = static_cast<NodeId>(rng.next_below(g.num_nodes()));
      const auto v = static_cast<NodeId>(rng.next_below(g.num_nodes()));
      batch.push_back(
          {rng.next_bool(0.5) ? EdgeOp::kInsert : EdgeOp::kRemove, u, v});
    }
    log.push_back({.updates = std::move(batch)});
  }
  // The exact table every epoch promises, computed offline.
  std::vector<std::vector<NodeId>> expected;
  {
    core::DynamicKCore replica(g);
    expected.push_back(replica.coreness());
    for (std::size_t b = 0; b < log.size(); ++b) {
      replica.apply_batch(log[b].updates);
      expected.push_back(replica.coreness());
    }
  }

  ServiceOptions options;
  options.metrics = true;
  options.threads = 2;
  options.provisional_deadline_ms = 1;  // aggressive: fire mid-repair often
  Service service(g, options);

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> provisional_seen{0};
  std::atomic<std::uint64_t> violations{0};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      const auto snapshot = service.query();
      if (!snapshot->provisional) continue;
      provisional_seen.fetch_add(1, std::memory_order_relaxed);
      // Theorem 1: a mid-repair table is a sound UPPER bound on the
      // exact coreness of the pending epoch's topology — every entry
      // >= the truth, never below it.
      bool ok = snapshot->epoch < expected.size() &&
                snapshot->coreness.size() == expected[snapshot->epoch].size();
      if (ok) {
        const auto& truth = expected[snapshot->epoch];
        for (std::size_t i = 0; i < truth.size(); ++i) {
          if (snapshot->coreness[i] < truth[i]) {
            ok = false;
            break;
          }
        }
      }
      if (!ok) violations.fetch_add(1, std::memory_order_relaxed);
    }
  });

  std::uint64_t provisional_published = 0;
  for (std::size_t b = 0; b < log.size(); ++b) {
    const ApplyResult result = service.apply(log[b].updates);
    provisional_published += result.provisional_publishes;
    // The final publish always lands last: after apply() returns, the
    // visible snapshot is the finalized exact epoch, never provisional.
    const auto snapshot = service.query();
    ASSERT_FALSE(snapshot->provisional) << "batch " << b;
    ASSERT_EQ(snapshot->epoch, b + 1);
    ASSERT_EQ(snapshot->coreness, expected[b + 1]) << "batch " << b;
  }
  stop.store(true, std::memory_order_release);
  reader.join();

  EXPECT_EQ(violations.load(), 0U);
  // Timing-dependent: the repairs may all beat the 1ms deadline, so zero
  // provisional publishes (and zero reader sightings) is legal — but any
  // provisional the reader DID catch was held to the upper-bound
  // contract above. provisional_seen is deliberately not bounded against
  // provisional_published: the poll loop can observe one snapshot twice.
  (void)provisional_seen;
  if (service.metrics_enabled()) {
    EXPECT_EQ(service.metrics().value("live.provisional_publishes"),
              provisional_published);
  }
}

// --- one kernel, one region routine ----------------------------------------

TEST(RepairEngine, InitializeDoesTheSameWorkAsBspAsync) {
  // Both callers run par::relax. At one thread both seed every node in id
  // order at estimate = degree, so any drift in either caller's seeding
  // or in the loop shows up as a different work profile.
  graph::gen::RmatParams params;
  params.scale = 13;
  params.edge_factor = 8.0;
  const Graph g = gen::rmat(params, 7);
  const auto truth = seq::coreness_bz(g);
  for (const SchedPolicy sched : {SchedPolicy::kLifo, SchedPolicy::kBound}) {
    api::RunOptions options;
    options.threads = 1;
    options.sched = sched;
    options.targeted_send = true;
    const auto batch = api::decompose(g, api::kProtocolBspAsync, options);
    const auto& batch_stats = std::get<api::AsyncExtras>(batch.extras);

    const LiveGraph live(g);
    RepairEngine engine(live, RepairOptions{1, sched, true});
    const RepairStats stats = engine.initialize();
    std::vector<NodeId> coreness;
    engine.copy_coreness(coreness);

    const std::string policy(core::to_string(sched));
    EXPECT_EQ(stats.relaxations, batch_stats.relaxations) << policy;
    EXPECT_EQ(stats.skipped_recomputes, batch_stats.skipped_recomputes)
        << policy;
    EXPECT_EQ(stats.pop_scans, batch_stats.pop_scans) << policy;
    EXPECT_EQ(batch.coreness, truth) << policy;
    EXPECT_EQ(coreness, truth) << policy;
  }
}

TEST(RepairEngine, RaisedRegionIsExactlyTheNodesThatRise) {
  // Against an exact table the support peel's fixpoint is precisely the
  // set of nodes whose coreness rises: every raised node rises and every
  // rising node was raised. A bounded region routine must keep this.
  graph::gen::RmatParams params;
  params.scale = 10;
  params.edge_factor = 4.0;
  const std::array<Graph, 2> graphs{gen::rmat(params, 3),
                                    gen::barabasi_albert(1000, 3, 5)};
  std::uint64_t total_raised = 0;
  for (const Graph& g : graphs) {
    LiveGraph live(g);
    RepairEngine engine(live, RepairOptions{1, SchedPolicy::kBound, true});
    engine.initialize();
    std::vector<NodeId> before = seq::coreness_bz(g);
    util::Xoshiro256 rng(g.num_nodes());
    for (int inserted = 0; inserted < 150;) {
      const auto u = static_cast<NodeId>(rng.next_below(g.num_nodes()));
      const auto v = static_cast<NodeId>(rng.next_below(g.num_nodes()));
      if (!live.apply({EdgeOp::kInsert, u, v})) continue;
      ++inserted;
      engine.note_insert(u, v);
      const RepairStats stats = engine.repair();
      const std::vector<NodeId> after = seq::coreness_bz(live.snapshot());
      std::uint64_t rose = 0;
      for (NodeId w = 0; w < g.num_nodes(); ++w) {
        if (after[w] > before[w]) ++rose;
      }
      ASSERT_EQ(stats.raised, rose) << "insert {" << u << "," << v << "}";
      std::vector<NodeId> coreness;
      engine.copy_coreness(coreness);
      ASSERT_EQ(coreness, after);
      total_raised += stats.raised;
      before = after;
    }
  }
  EXPECT_GT(total_raised, 0U);
}

// --- locality: incremental repair beats full reconvergence ------------------

TEST(LiveService, SingleEdgeRepairIsLocal) {
  // Two 30-cliques plus a long tendril: flipping the tendril's terminal
  // edge must not re-relax the cliques or the rest of the chain — the
  // K-subcore of a coreness-0/1 endpoint is a handful of nodes.
  const std::array<NodeId, 2> sizes{30, 30};
  Graph g = gen::disjoint_cliques(sizes);
  g = gen::attach_paths(g, 1, 100, 3);
  const NodeId tip = static_cast<NodeId>(g.num_nodes() - 1);
  Service service(g);
  const std::uint64_t full = service.initial_stats().relaxations;
  const ApplyResult removed = service.apply(
      std::vector<EdgeUpdate>{{EdgeOp::kRemove, tip - 1, tip}});
  EXPECT_EQ(service.query()->coreness,
            seq::coreness_bz(service.graph().snapshot()));
  EXPECT_LT(removed.repair.relaxations, full / 5);
  const ApplyResult inserted = service.apply(
      std::vector<EdgeUpdate>{{EdgeOp::kInsert, tip - 1, tip}});
  EXPECT_LT(inserted.repair.relaxations, full / 5);
  EXPECT_EQ(service.query()->coreness,
            seq::coreness_bz(service.graph().snapshot()));
}

}  // namespace
}  // namespace kcore::live
