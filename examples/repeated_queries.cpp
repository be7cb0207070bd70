// Serving repeated traffic: prepare-once / run-many amortization with
// api::Session, mirrored in README.md.
//
// A production deployment decomposes the same graph again and again —
// health probes, per-request recomputation after cache flushes, repeated
// benchmarking. One-shot api::decompose() re-derives the assignment,
// host/shard state and estimate tables on every call; a Session derives
// them once in prepare() and serves any number of run() calls from that
// state, each warm report bit-identical to a one-shot decompose().
//
// This example measures the difference on a scale-free graph for every
// protocol that has real setup to amortize, then shows the declarative
// sweep path (api::Plan) producing the same comparison in a few lines.
// Every report's coreness is checked against a one-shot api::decompose();
// a mismatch exits 1.
//
// Run: build/examples/repeated_queries [n]
#include <iostream>
#include <string>
#include <vector>

#include "api/session.h"
#include "graph/generators.h"
#include "util/stats.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace kcore;
  const auto n = static_cast<graph::NodeId>(
      argc > 1 ? std::stoul(argv[1]) : 20000);
  const graph::Graph g = graph::gen::barabasi_albert(n, 3, 42);
  std::cout << "graph: " << g.num_nodes() << " nodes, " << g.num_edges()
            << " edges\n\n";

  constexpr int kQueries = 8;
  // Coreness is protocol-invariant, so one one-shot run is the reference
  // for every report below.
  const auto expected = api::decompose(g, "bz").coreness;
  int mismatches = 0;
  const auto check = [&](const std::string& protocol,
                         const api::DecomposeReport& report) {
    if (report.coreness != expected) {
      std::cerr << protocol << ": coreness differs from one-shot decompose\n";
      ++mismatches;
    }
  };

  // --- the Session path: one prepare, many runs --------------------------
  util::TableWriter table({"protocol", "prepare ms", "first run ms",
                           "warm median ms", "amortized saving"});
  for (const std::string protocol : {"one-to-many", "one-to-many-par",
                                     "bsp-par", "bsp-async"}) {
    api::RunOptions options;
    options.num_hosts = 16;
    // threads stays at its default (0 = one worker per hardware thread);
    // the capability pass accepts it everywhere because only non-default
    // values of unconsumed knobs are errors.
    api::Session session(g, protocol, options);

    std::vector<double> wall_ms;
    for (int query = 0; query < kQueries; ++query) {
      const auto report = session.run();  // first call prepares on demand
      wall_ms.push_back(report.elapsed_ms);
      check(protocol, report);
    }
    const auto warm = util::SampleSummary::of(
        std::vector<double>(wall_ms.begin() + 1, wall_ms.end()));
    const double saving = wall_ms.front() > 0.0
                              ? 100.0 * (1.0 - warm.median / wall_ms.front())
                              : 0.0;
    table.add_row({protocol, util::fmt_double(session.prepare_ms(), 2),
                   util::fmt_double(wall_ms.front(), 2),
                   util::fmt_double(warm.median, 2),
                   util::fmt_double(saving, 1) + "%"});
  }
  table.print(std::cout);
  std::cout << "\n'first run ms' pays prepare (assignment + host/shard "
               "construction + table\nallocation); every later query "
               "replays from the prepared state.\n\n";

  // --- the Plan path: the same comparison, declaratively -----------------
  api::PlanSpec spec;
  spec.protocols = {"bz", "bsp-async"};
  spec.repeats = kQueries;
  std::cout << "api::Plan over {bz, bsp-async} x " << kQueries
            << " repeats:\n";
  api::Plan plan(g, spec);
  const auto results = plan.run(
      [&](const api::PlanCell& cell, int, const api::DecomposeReport& report) {
        check(cell.protocol, report);
      });
  for (const auto& cell : results) {
    std::cout << "  " << cell.cell.protocol << ": first "
              << util::fmt_double(cell.first_wall_ms, 2) << "ms, warm median "
              << util::fmt_double(cell.warm_wall_ms.median, 2)
              << "ms over " << cell.warm_wall_ms.count << " runs\n";
  }
  std::cout << "\nevery report matches one-shot decompose: "
            << (mismatches == 0 ? "yes" : "NO") << "\n";
  return mismatches == 0 ? 0 : 1;
}
