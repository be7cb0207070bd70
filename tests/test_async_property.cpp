// Randomized property tests for the async chaotic-relaxation runtime:
// across hundreds of generated graphs (Erdős–Rényi, Barabási–Albert,
// stars, paths, disconnected unions, plus the deterministic adversaries),
// several seeds, and 1/2/4/hw worker threads, bsp-async must produce
// coreness BIT-IDENTICAL to the sequential Batagelj–Zaveršnik baseline —
// the paper's convergence-under-asynchrony claim, checked on real
// schedules instead of proved on paper.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iostream>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "api/api.h"
#include "eval/datasets.h"
#include "graph/generators.h"
#include "graph/mutable_graph.h"
#include "live/repair.h"
#include "par/relax.h"
#include "seq/kcore_seq.h"
#include "util/rng.h"

namespace kcore {
namespace {

using graph::Graph;
using graph::NodeId;
namespace gen = graph::gen;

struct Case {
  std::string name;
  Graph g;
};

/// A union of structurally different parts (clique + star + path + ER
/// blob), sized by the seed: exercises many disconnected components with
/// heterogeneous coreness, the shape most likely to strand a dirty vertex
/// on an idle worker.
Graph disconnected_union(std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<Graph> parts;
  parts.push_back(gen::clique(2 + rng.next_below(6)));
  parts.push_back(gen::star(2 + rng.next_below(30)));
  parts.push_back(gen::chain(2 + rng.next_below(30)));
  const NodeId n = 4 + static_cast<NodeId>(rng.next_below(40));
  const std::uint64_t max_edges =
      static_cast<std::uint64_t>(n) * (n - 1) / 2;
  parts.push_back(gen::erdos_renyi_gnm(
      n, std::min<std::uint64_t>(2 * n, max_edges), seed * 13 + 1));
  if (rng.next_below(2) == 0) {
    parts.push_back(Graph::from_edges(3, {}));  // isolated vertices
  }
  return gen::disjoint_union(parts);
}

/// >= 200 graphs across the families the issue names, plus the repo's
/// deterministic adversaries (worst-case polygon, grids, bipartite).
std::vector<Case> property_cases() {
  std::vector<Case> cases;
  auto add = [&cases](std::string name, Graph g) {
    cases.push_back({std::move(name), std::move(g)});
  };

  for (const NodeId n : {2u, 3u, 10u, 40u, 120u}) {
    for (const std::uint64_t factor : {1u, 3u}) {
      for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        const std::uint64_t max_edges =
            static_cast<std::uint64_t>(n) * (n - 1) / 2;
        const std::uint64_t m = std::min(factor * n, max_edges);
        add("er n=" + std::to_string(n) + " m=" + std::to_string(m) +
                " seed=" + std::to_string(seed),
            gen::erdos_renyi_gnm(n, m, seed));
      }
    }
  }
  for (const NodeId n : {10u, 50u, 150u}) {
    for (const NodeId epn : {1u, 3u}) {
      for (std::uint64_t seed = 1; seed <= 5; ++seed) {
        add("ba n=" + std::to_string(n) + " epn=" + std::to_string(epn) +
                " seed=" + std::to_string(seed),
            gen::barabasi_albert(n, epn, seed));
      }
    }
  }
  for (const NodeId n : {2u, 3u, 5u, 17u, 64u, 200u}) {
    add("star n=" + std::to_string(n), gen::star(n));
  }
  for (const NodeId n : {2u, 3u, 4u, 9u, 33u, 150u}) {
    add("path n=" + std::to_string(n), gen::chain(n));
  }
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    add("union seed=" + std::to_string(seed), disconnected_union(seed));
  }
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const std::vector<NodeId> sizes{
        static_cast<NodeId>(2 + seed), 5, 9, 3};
    add("cliques seed=" + std::to_string(seed),
        gen::disjoint_cliques(sizes));
  }
  // Deterministic adversaries: the §4.2 worst case propagates one
  // estimate change around the whole polygon — the longest possible
  // sequential dependency chain for the work-stealing scheduler.
  for (const NodeId n : {5u, 16u, 64u}) {
    add("worst-case n=" + std::to_string(n), gen::montresor_worst_case(n));
  }
  add("cycle n=3", gen::cycle(3));
  add("cycle n=10", gen::cycle(10));
  add("grid 4x7", gen::grid(4, 7));
  add("bipartite 3x8", gen::complete_bipartite(3, 8));
  add("ring-lattice n=20 d=4", gen::ring_lattice(20, 4));
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    add("ws seed=" + std::to_string(seed),
        gen::watts_strogatz(60, 4, 0.2, seed));
  }
  return cases;
}

std::vector<unsigned> thread_counts() {
  std::set<unsigned> counts{1, 2, 4};
  const unsigned hw = std::thread::hardware_concurrency();
  if (hw > 0) counts.insert(hw);
  return {counts.begin(), counts.end()};
}

constexpr api::AssignmentPolicy kPolicies[] = {
    api::AssignmentPolicy::kModulo, api::AssignmentPolicy::kBlock,
    api::AssignmentPolicy::kRandom, api::AssignmentPolicy::kHash};

constexpr api::SchedPolicy kScheds[] = {api::SchedPolicy::kLifo,
                                        api::SchedPolicy::kBound};

TEST(AsyncProperty, MatchesSequentialBaselineOnEveryGeneratedGraph) {
  const auto cases = property_cases();
  ASSERT_GE(cases.size(), 200u);
  std::size_t index = 0;
  for (const auto& test_case : cases) {
    const auto expected = seq::coreness_bz(test_case.g);
    // Rotate the initial-distribution policy across cases (the result
    // must not depend on which lane a vertex starts in) and run the FULL
    // scheduling-policy matrix: the §4 convergence argument is
    // schedule-independent, so every policy × thread count must land on
    // the identical fixed point.
    for (const unsigned threads : thread_counts()) {
      for (const api::SchedPolicy sched : kScheds) {
        api::RunOptions options;
        options.threads = threads;
        options.sched = sched;
        options.assignment = kPolicies[index % 4];
        options.seed = 1000 + 7 * index + threads;
        const auto report =
            api::decompose(test_case.g, api::kProtocolBspAsync, options);
        ASSERT_TRUE(report.traffic.converged)
            << test_case.name << " threads=" << threads
            << " sched=" << api::to_string(sched);
        ASSERT_EQ(report.coreness, expected)
            << test_case.name << " threads=" << threads
            << " sched=" << api::to_string(sched);
        const auto& extras = std::get<api::AsyncExtras>(report.extras);
        EXPECT_EQ(extras.sched, sched) << test_case.name;
        EXPECT_GE(extras.relaxations, test_case.g.num_nodes())
            << test_case.name;
        EXPECT_LE(extras.skipped_recomputes, extras.relaxations)
            << test_case.name;
        // Every pop probes at least one deque, so the scan tally bounds
        // the pop count from above.
        EXPECT_GE(extras.pop_scans, extras.relaxations) << test_case.name;
        EXPECT_GE(extras.detector_passes, 1u) << test_case.name;
        EXPECT_LE(extras.threads_used, std::max(1u, threads))
            << test_case.name;
      }
    }
    ++index;
  }
}

TEST(AsyncProperty, MatchesSequentialOnEveryDatasetProfile) {
  // The nine paper dataset stand-ins, same scale as the ParParity sweep,
  // across the full sched × threads matrix.
  constexpr double kScale = 0.02;
  constexpr std::uint64_t kSeed = 17;
  std::size_t profiles = 0;
  for (const auto& spec : eval::dataset_registry()) {
    const Graph g = spec.build(kScale, kSeed);
    const auto expected = seq::coreness_bz(g);
    for (const unsigned threads : thread_counts()) {
      for (const api::SchedPolicy sched : kScheds) {
        api::RunOptions options;
        options.threads = threads;
        options.sched = sched;
        options.seed = kSeed + threads;
        const auto report =
            api::decompose(g, api::kProtocolBspAsync, options);
        ASSERT_TRUE(report.traffic.converged)
            << spec.name << " threads=" << threads
            << " sched=" << api::to_string(sched);
        ASSERT_EQ(report.coreness, expected)
            << spec.name << " threads=" << threads
            << " sched=" << api::to_string(sched);
      }
    }
    ++profiles;
  }
  EXPECT_EQ(profiles, 9u);
}

std::uint64_t one_thread_relaxations(const Graph& g, api::SchedPolicy sched,
                                     std::uint64_t seed) {
  api::RunOptions options;
  options.threads = 1;
  options.sched = sched;
  options.seed = seed;
  const auto report = api::decompose(g, api::kProtocolBspAsync, options);
  return std::get<api::AsyncExtras>(report.extras).relaxations;
}

TEST(AsyncSched, BoundPolicyCutsRelaxationsOnDenseHubHeavyProfiles) {
  // At 1 thread the whole run is one worker popping its own lane, so the
  // relaxation counter is a pure function of (graph, options).
  // Support-counted wakes (par/relax.h) keep every policy at or below
  // 2.5 relaxations per node on the dense hub-heavy profiles; lifo did
  // up to 7.96 per node before them. The bound policy's peeling-frontier
  // order still cuts lifo's count by more than 15% on astroph-like and
  // condmat-like. On slashdot-like and berkstan-like lifo now does fewer
  // relaxations than bound: on slashdot-like it sits at 1.09 per node,
  // within 9% of the floor of one per node, so no policy can cut 15%
  // there (the reason wikitalk-like was never in this list).
  constexpr double kScale = 0.1;
  constexpr std::uint64_t kSeed = 17;
  struct Profile {
    const char* name;
    bool bound_cuts_lifo;
  };
  for (const Profile profile : {Profile{"slashdot-like", false},
                                Profile{"astroph-like", true},
                                Profile{"condmat-like", true},
                                Profile{"berkstan-like", false}}) {
    const Graph g = eval::dataset_by_name(profile.name).build(kScale, kSeed);
    const double n = g.num_nodes();
    std::uint64_t lifo = 0;
    std::uint64_t bound = 0;
    for (const api::SchedPolicy sched : kScheds) {
      const std::uint64_t relaxations =
          one_thread_relaxations(g, sched, kSeed);
      EXPECT_LE(static_cast<double>(relaxations), 2.5 * n)
          << profile.name << " sched=" << api::to_string(sched);
      if (sched == api::SchedPolicy::kLifo) lifo = relaxations;
      if (sched == api::SchedPolicy::kBound) bound = relaxations;
      std::cout << profile.name << " " << api::to_string(sched) << ": "
                << relaxations << " relaxations ("
                << static_cast<double>(relaxations) / n << " per node)\n";
    }
    if (profile.bound_cuts_lifo) {
      EXPECT_LE(bound, lifo - lifo * 15 / 100)
          << profile.name << ": bound=" << bound << " lifo=" << lifo;
    }
  }
}

TEST(AsyncSched, OneWorkerRelaxationsStayNearNodeCountOnBerkstan) {
  // The complexity pin for support-counted wakes: berkstan-like at scale
  // 0.5, graph seed 1 (n = 11,576, max degree 2,225), one worker, bound.
  // With the targeted wake alone a hub re-relaxed whenever any neighbor
  // fell below it and the run did 5.52 relaxations per node; a support
  // counter wakes it only when its h-index must fall.
  const Graph g = eval::dataset_by_name("berkstan-like").build(0.5, 1);
  const std::uint64_t relaxations =
      one_thread_relaxations(g, api::SchedPolicy::kBound, 1);
  const double per_node =
      static_cast<double>(relaxations) / g.num_nodes();
  EXPECT_LE(per_node, 2.0) << relaxations << " relaxations, n="
                           << g.num_nodes();
  std::cout << "berkstan-like@0.5 bound: " << per_node
            << " relaxations per node\n";
}

TEST(AsyncSched, OneWorkerScheduleIsPinned) {
  // At one worker the schedule is a pure function of (graph, options),
  // so its work profile is pinned to literals. They were recorded from
  // the pool-backed one-worker kernel (Chase-Lev lanes, atomic flags,
  // the detector and support counters); the plain-stack kernel with
  // neighbour-estimate histograms must reproduce every one of them. A
  // different literal means a different schedule, not noise: do not
  // re-pin it without explaining the change.
  struct Pin {
    const char* graph;
    api::SchedPolicy sched;
    std::uint64_t relaxations;
    std::uint64_t skipped_recomputes;
    std::uint64_t pop_scans;
    std::uint64_t detector_passes;
  };
  graph::gen::RmatParams params;
  params.scale = 13;
  params.edge_factor = 8.0;
  const std::vector<Case> graphs{
      {"rmat", gen::rmat(params, 7)},
      {"berkstan-like",
       eval::dataset_by_name("berkstan-like").build(0.5, 1)},
      {"astroph-like", eval::dataset_by_name("astroph-like").build(0.1, 17)}};
  const Pin pins[] = {
      {"rmat", api::SchedPolicy::kLifo, 13390, 3525, 13391, 1},
      {"rmat", api::SchedPolicy::kBound, 12792, 3537, 13434, 1},
      {"berkstan-like", api::SchedPolicy::kLifo, 18867, 6643, 18868, 1},
      {"berkstan-like", api::SchedPolicy::kBound, 18152, 6655, 18786, 1},
      {"astroph-like", api::SchedPolicy::kLifo, 1299, 24, 1300, 1},
      {"astroph-like", api::SchedPolicy::kBound, 757, 27, 868, 1},
  };
  for (const Pin& pin : pins) {
    const auto it = std::find_if(
        graphs.begin(), graphs.end(),
        [&pin](const Case& c) { return c.name == pin.graph; });
    ASSERT_NE(it, graphs.end());
    api::RunOptions options;
    options.threads = 1;
    options.sched = pin.sched;
    const auto report =
        api::decompose(it->g, api::kProtocolBspAsync, options);
    const auto& extras = std::get<api::AsyncExtras>(report.extras);
    const std::string label = std::string(pin.graph) + " sched=" +
                              std::string(api::to_string(pin.sched));
    EXPECT_EQ(extras.relaxations, pin.relaxations) << label;
    EXPECT_EQ(extras.skipped_recomputes, pin.skipped_recomputes) << label;
    EXPECT_EQ(extras.pop_scans, pin.pop_scans) << label;
    EXPECT_EQ(extras.detector_passes, pin.detector_passes) << label;
    EXPECT_EQ(report.coreness, seq::coreness_bz(it->g)) << label;
  }
}

TEST(AsyncSched, OneThreadRunsAreDeterministicPerPolicy) {
  // The counter the reduction test pins must itself be reproducible:
  // same graph, same options, 1 thread -> identical schedule profile.
  const Graph g = gen::barabasi_albert(1500, 2, 11);
  for (const api::SchedPolicy sched : kScheds) {
    api::RunOptions options;
    options.threads = 1;
    options.sched = sched;
    options.seed = 5;
    const auto first = api::decompose(g, api::kProtocolBspAsync, options);
    const auto second = api::decompose(g, api::kProtocolBspAsync, options);
    const auto& a = std::get<api::AsyncExtras>(first.extras);
    const auto& b = std::get<api::AsyncExtras>(second.extras);
    EXPECT_EQ(a.relaxations, b.relaxations) << api::to_string(sched);
    EXPECT_EQ(a.re_enqueues, b.re_enqueues) << api::to_string(sched);
    EXPECT_EQ(a.skipped_recomputes, b.skipped_recomputes)
        << api::to_string(sched);
    EXPECT_EQ(first.coreness, second.coreness) << api::to_string(sched);
  }
}

TEST(AsyncProperty, RepeatedRunsAreScheduleIndependent) {
  // Same graph, many runs at full width: the schedule profile (steals,
  // re-enqueues) may differ every time, the coreness never.
  const Graph g = gen::barabasi_albert(2500, 3, 97);
  const auto expected = seq::coreness_bz(g);
  for (std::uint64_t seed = 0; seed < 25; ++seed) {
    api::RunOptions options;
    options.threads = 0;  // hardware width
    options.seed = seed;
    const auto report = api::decompose(g, api::kProtocolBspAsync, options);
    ASSERT_EQ(report.coreness, expected) << "run " << seed;
  }
}

TEST(AsyncProperty, TargetedWakeFilterOffStillConverges) {
  // The §3.1.2 filter is an optimization, not a correctness lever:
  // disabling it changes the wake traffic only.
  const Graph g = gen::erdos_renyi_gnm(800, 2400, 3);
  const auto expected = seq::coreness_bz(g);
  for (const unsigned threads : thread_counts()) {
    api::RunOptions options;
    options.threads = threads;
    options.targeted_send = false;
    const auto report = api::decompose(g, api::kProtocolBspAsync, options);
    ASSERT_EQ(report.coreness, expected) << "threads=" << threads;
  }
}

TEST(AsyncProperty, DegenerateGraphsDirectCall) {
  const Graph g = Graph::from_edges(1, {});
  api::RunOptions options;
  options.threads = 8;
  const auto report = api::decompose(g, api::kProtocolBspAsync, options);
  ASSERT_EQ(report.coreness, std::vector<NodeId>{0});
  // Never more workers than vertices.
  EXPECT_EQ(std::get<api::AsyncExtras>(report.extras).threads_used, 1u);
}

/// A hub adjacent to every node of `cliques` disjoint `size`-cliques:
/// the hub's degree is cliques * size but its coreness is size, so it
/// falls a long way while its neighbors barely move.
Graph star_of_cliques(NodeId cliques, NodeId size) {
  std::vector<graph::Edge> edges;
  for (NodeId c = 0; c < cliques; ++c) {
    const NodeId base = 1 + c * size;
    for (NodeId i = 0; i < size; ++i) {
      edges.push_back({0, base + i});
      for (NodeId j = i + 1; j < size; ++j) {
        edges.push_back({base + i, base + j});
      }
    }
  }
  return Graph::from_edges(1 + cliques * size, edges);
}

/// Mixed batches through a one-worker RepairEngine: each batch inserts
/// some non-edges, then removes some edges, repairs, and must equal bz.
void expect_repairs_exact(live::RepairEngine& engine, graph::MutableGraph& g,
                          std::uint64_t seed, const std::string& label) {
  util::Xoshiro256 rng(seed);
  const NodeId n = g.num_nodes();
  for (int batch = 0; batch < 12; ++batch) {
    for (int inserted = 0; inserted < 8;) {
      const auto u = static_cast<NodeId>(rng.next_below(n));
      const auto v = static_cast<NodeId>(rng.next_below(n));
      if (!g.apply({graph::EdgeOp::kInsert, u, v})) continue;
      engine.note_insert(u, v);
      ++inserted;
    }
    for (int removed = 0; removed < 8;) {
      const auto u = static_cast<NodeId>(rng.next_below(n));
      const auto nbrs = g.neighbors(u);
      if (nbrs.empty()) continue;
      const NodeId v = nbrs[rng.next_below(nbrs.size())];
      ASSERT_TRUE(g.apply({graph::EdgeOp::kRemove, u, v}));
      engine.note_remove(u, v);
      ++removed;
    }
    engine.repair();
    std::vector<NodeId> coreness;
    engine.copy_coreness(coreness);
    ASSERT_EQ(coreness, seq::coreness_bz(g.snapshot()))
        << label << " batch " << batch;
  }
}

TEST(AsyncProperty, OneWorkerHistogramWakesStayExact) {
  // The histogram wake runs only on a one-worker context with the
  // targeted filter on; with it off every neighbor of a lowered vertex
  // is woken. Both must land on bz under every policy, for static
  // decomposition and for live repair (whose table starts warm, either
  // converged by the engine or adopted by a warm start; histograms are
  // rebuilt every run either way).
  graph::gen::RmatParams params;
  params.scale = 10;
  params.edge_factor = 8.0;
  std::vector<Case> cases;
  cases.push_back({"rmat", gen::rmat(params, 3)});
  cases.push_back({"gnm", gen::erdos_renyi_gnm(1500, 6000, 5)});
  cases.push_back({"ba", gen::barabasi_albert(1500, 4, 7)});
  cases.push_back({"star-of-cliques", star_of_cliques(40, 6)});
  for (const char* profile :
       {"berkstan-like", "slashdot-like", "wikitalk-like", "astroph-like"}) {
    cases.push_back({profile, eval::dataset_by_name(profile).build(0.05, 3)});
  }
  for (const Case& test_case : cases) {
    const auto expected = seq::coreness_bz(test_case.g);
    for (const api::SchedPolicy sched : kScheds) {
      for (const bool targeted : {true, false}) {
        api::RunOptions options;
        options.threads = 1;
        options.sched = sched;
        options.targeted_send = targeted;
        const auto report =
            api::decompose(test_case.g, api::kProtocolBspAsync, options);
        ASSERT_EQ(report.coreness, expected)
            << test_case.name << " sched=" << api::to_string(sched)
            << " targeted=" << targeted;
      }
      const live::RepairOptions one_worker{1, sched, true};
      graph::MutableGraph fresh(test_case.g);
      live::RepairEngine initialized(fresh, one_worker);
      initialized.initialize();
      expect_repairs_exact(initialized, fresh, 11,
                           test_case.name + " initialize sched=" +
                               std::string(api::to_string(sched)));
      // Adopt a table after the graph moved underneath the engine (the
      // recovery shape).
      graph::MutableGraph adopted(test_case.g);
      live::RepairEngine warm(adopted, one_worker);
      warm.initialize();
      util::Xoshiro256 rng(17);
      for (int inserted = 0; inserted < 32;) {
        const auto u =
            static_cast<NodeId>(rng.next_below(adopted.num_nodes()));
        const auto v =
            static_cast<NodeId>(rng.next_below(adopted.num_nodes()));
        if (adopted.apply({graph::EdgeOp::kInsert, u, v})) ++inserted;
      }
      ASSERT_FALSE(
          warm.warm_start(seq::coreness_bz(adopted.snapshot())).has_value());
      expect_repairs_exact(warm, adopted, 13,
                           test_case.name + " warm_start sched=" +
                               std::string(api::to_string(sched)));
    }
  }
}

TEST(AsyncProperty, OneWorkerRelaxFromWarmTablesIsExact) {
  // par::relax at one worker from warm tables: every estimate is a
  // random safe upper bound in [coreness, degree + 3], so the clamp for
  // an estimate above the degree fires. Every vertex whose estimate is
  // above its computeIndex is seeded, plus a random third of the rest;
  // the others start without a histogram and relax only if the targeted
  // rule wakes them, which a static run (everything seeded) never does.
  std::vector<Case> cases;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    cases.push_back({"er seed=" + std::to_string(seed),
                     gen::erdos_renyi_gnm(300, 300 * (1 + seed % 4), seed)});
    cases.push_back({"ba seed=" + std::to_string(seed),
                     gen::barabasi_albert(300, 1 + seed % 5, seed)});
    cases.push_back({"union seed=" + std::to_string(seed),
                     disconnected_union(seed)});
  }
  cases.push_back({"star", gen::star(120)});
  cases.push_back({"star-of-cliques", star_of_cliques(12, 5)});
  std::size_t index = 0;
  for (const Case& test_case : cases) {
    const Graph& g = test_case.g;
    const NodeId n = g.num_nodes();
    const auto expected = seq::coreness_bz(g);
    for (const api::SchedPolicy sched : kScheds) {
      for (const bool targeted : {true, false}) {
        util::Xoshiro256 rng(1000 + index++);
        std::vector<NodeId> start(n);
        for (NodeId u = 0; u < n; ++u) {
          start[u] = expected[u] + static_cast<NodeId>(rng.next_below(
                                       g.degree(u) + 4 - expected[u]));
        }
        par::AsyncRunContext context(par::AsyncPrepared{1, sched, {}}, n);
        context.reset_queue();
        std::vector<NodeId> around;
        std::uint64_t unseeded = 0;
        for (NodeId u = 0; u < n; ++u) {
          context.est[u].store(start[u], std::memory_order_relaxed);
          around.clear();
          for (const NodeId v : g.neighbors(u)) around.push_back(start[v]);
          const bool stable = start[u] <= g.degree(u) &&
                              core::compute_index(around, start[u]) ==
                                  start[u];
          if (!stable || rng.next_below(3) == 0) {
            context.seed(u, 0, start[u]);
          } else {
            ++unseeded;
          }
        }
        const par::AsyncStats stats =
            par::relax(g, context, targeted, nullptr);
        std::vector<NodeId> coreness;
        context.copy_estimates(coreness);
        ASSERT_EQ(coreness, expected)
            << test_case.name << " sched=" << api::to_string(sched)
            << " targeted=" << targeted << " unseeded=" << unseeded;
        EXPECT_EQ(stats.detector_passes, 1u);
        EXPECT_LE(stats.skipped_recomputes, stats.relaxations);
      }
    }
    // One-worker live repairs after mixed insert/remove batches.
    graph::MutableGraph live(g);
    live::RepairEngine engine(live,
                              live::RepairOptions{1, kScheds[index % 2],
                                                  true});
    engine.initialize();
    expect_repairs_exact(engine, live, 7 + index, test_case.name);
  }
}

}  // namespace
}  // namespace kcore
