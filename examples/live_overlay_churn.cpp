// A live overlay under churn: peers join, make and lose links, and the
// k-core decomposition is maintained continuously instead of being
// recomputed (DynamicKCore). This is the paper's one-to-one scenario
// taken to its run-time conclusion.
#include <iostream>

#include "core/dynamic.h"
#include "graph/generators.h"
#include "util/rng.h"
#include "util/table.h"

int main() {
  using namespace kcore;
  graph::Graph g = graph::gen::barabasi_albert(20000, 3, 31);
  core::DynamicKCore overlay(g);
  const auto bootstrap = overlay.lifetime_stats();
  std::cout << "bootstrap: " << overlay.graph().num_nodes() << " peers, "
            << overlay.graph().num_edges() << " links, " << bootstrap.rounds
            << " rounds, " << bootstrap.messages << " messages\n\n";

  util::Xoshiro256 rng(7);
  util::TableWriter table({"epoch", "joins", "new links", "lost links",
                           "maint msgs", "maint rounds", "kmax"});
  std::uint64_t prev_messages = bootstrap.messages;
  for (int epoch = 1; epoch <= 8; ++epoch) {
    int joins = 0;
    int adds = 0;
    int removals = 0;
    std::uint64_t rounds = 0;
    for (int event = 0; event < 250; ++event) {
      const double dice = rng.next_double();
      if (dice < 0.08) {
        // A new peer joins and bootstraps with 3 random links.
        const auto fresh = overlay.add_node();
        for (int l = 0; l < 3; ++l) {
          const auto peer = static_cast<graph::NodeId>(
              rng.next_below(overlay.graph().num_nodes() - 1));
          rounds += overlay.add_edge(fresh, peer).rounds;
        }
        ++joins;
      } else if (dice < 0.60) {
        const auto u = static_cast<graph::NodeId>(
            rng.next_below(overlay.graph().num_nodes()));
        const auto v = static_cast<graph::NodeId>(
            rng.next_below(overlay.graph().num_nodes()));
        if (u != v) rounds += overlay.add_edge(u, v).rounds;
        ++adds;
      } else {
        const auto u = static_cast<graph::NodeId>(
            rng.next_below(overlay.graph().num_nodes()));
        if (overlay.graph().degree(u) > 0) {
          // Drop one of u's links.
          const auto v = static_cast<graph::NodeId>(
              rng.next_below(overlay.graph().num_nodes()));
          rounds += overlay.remove_edge(u, v).rounds;
          ++removals;
        }
      }
    }
    graph::NodeId kmax = 0;
    for (const auto c : overlay.coreness()) kmax = std::max(kmax, c);
    const auto lifetime = overlay.lifetime_stats();
    table.add_row({std::to_string(epoch), std::to_string(joins),
                   std::to_string(adds), std::to_string(removals),
                   std::to_string(lifetime.messages - prev_messages),
                   std::to_string(rounds), std::to_string(kmax)});
    prev_messages = lifetime.messages;
  }
  table.print(std::cout);
  std::cout << "\nEach epoch of 250 churn events costs a small fraction of "
               "the bootstrap\nconvergence — the decomposition stays exact "
               "throughout (tested in\ntests/test_dynamic.cpp).\n";
  return 0;
}
