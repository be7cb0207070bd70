// Ablation: dynamic maintenance vs restart-from-scratch under churn.
//
// The paper's one-to-one scenario is a live overlay; peers join/leave all
// the time. This bench streams edge insertions/deletions into the
// DynamicKCore maintenance protocol and charges each update its actual
// reconvergence cost, then compares with the cost of re-running the
// static protocol after every update.
#include <iostream>

#include "api/api.h"
#include "core/dynamic.h"
#include "eval/datasets.h"
#include "eval/experiments.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/table.h"

int main() {
  using namespace kcore::eval;
  const auto options = ExperimentOptions::from_env();
  const int updates = options.quick ? 20 : 200;
  std::cout << "== bench: ablation — dynamic maintenance under churn ==\n"
            << "scale=" << options.scale << " updates=" << updates << "\n\n";

  kcore::util::TableWriter table(
      {"profile", "restart_msgs/update", "maint_msgs/update",
       "maint_rounds/update", "speedup"});
  for (const auto& spec : dataset_registry()) {
    // Keep the sweep affordable: maintenance itself is cheap, but the
    // restart comparison re-runs the full protocol per update.
    if (spec.name == "roadnet-like" || spec.name == "berkstan-like" ||
        spec.name == "amazon-like") {
      continue;
    }
    if (options.quick && spec.name != "gnutella-like") continue;
    const auto g = spec.build(options.scale * 0.25, options.base_seed);

    // Cost of one full restart (static protocol, synchronous).
    kcore::api::RunOptions restart_options;
    restart_options.mode = kcore::sim::DeliveryMode::kSynchronous;
    const auto restart = kcore::api::decompose(
        g, kcore::api::kProtocolOneToOne, restart_options);
    const auto restart_msgs =
        static_cast<double>(restart.traffic.total_messages);

    kcore::core::DynamicKCore dyn(g);
    kcore::util::Xoshiro256 rng(options.base_seed);
    kcore::util::RunningStats msgs;
    kcore::util::RunningStats rounds;
    for (int i = 0; i < updates; ++i) {
      const auto u =
          static_cast<kcore::graph::NodeId>(rng.next_below(g.num_nodes()));
      const auto v =
          static_cast<kcore::graph::NodeId>(rng.next_below(g.num_nodes()));
      if (u == v) continue;
      const auto stats =
          rng.next_bool(0.5) ? dyn.add_edge(u, v) : dyn.remove_edge(u, v);
      msgs.add(static_cast<double>(stats.messages));
      rounds.add(static_cast<double>(stats.rounds));
    }
    table.add_row({spec.name, kcore::util::fmt_double(restart_msgs, 0),
                   kcore::util::fmt_double(msgs.mean(), 1),
                   kcore::util::fmt_double(rounds.mean(), 2),
                   kcore::util::fmt_double(
                       restart_msgs / std::max(msgs.mean(), 1e-9), 0) +
                       "x"});
  }
  table.print(std::cout);
  std::cout << "\nReading: one churn event costs orders of magnitude less "
               "than restarting\nAlgorithm 1 — insertion reactivates only "
               "the K-subcore, deletion warm-starts\nfrom still-valid upper "
               "bounds.\n";
  return 0;
}
