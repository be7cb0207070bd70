// §3.3 termination detection: cost of the centralized (master/slaves) and
// decentralized (epidemic max-aggregation) detectors. The decentralized
// detector must converge in O(log |H|) rounds — the growth column is the
// check.
#include <iostream>
#include <variant>

#include "agg/termination.h"
#include "api/api.h"
#include "bench_main.h"
#include "core/assignment.h"
#include "core/termination.h"
#include "eval/datasets.h"
#include "eval/experiments.h"
#include "util/table.h"

static int bench_main() {
  using namespace kcore::eval;
  const auto options = ExperimentOptions::from_env();
  std::cout << "== bench: §3.3 termination detection ==\n\n";

  // --- Centralized detector on the one-to-one runs -----------------------
  std::cout << "Centralized (master/slaves) detector, one-to-one runs:\n";
  kcore::util::TableWriter central({"profile", "t_exec", "detect_round",
                                    "control_msgs", "protocol_msgs"});
  for (const auto& spec : dataset_registry()) {
    if (options.quick && spec.name != "gnutella-like") continue;
    const auto g = spec.build(options.scale * 0.5, options.base_seed);
    kcore::api::RunOptions run_options;
    run_options.seed = options.base_seed;
    const auto run =
        kcore::api::decompose(g, kcore::api::kProtocolOneToOne, run_options);
    const auto& extras = std::get<kcore::api::OneToOneExtras>(run.extras);
    const auto detection = kcore::core::centralized_termination(
        run.traffic.execution_time, extras.activity_transitions);
    central.add_row({spec.name,
                     std::to_string(run.traffic.execution_time),
                     std::to_string(detection.detection_round),
                     std::to_string(detection.control_messages),
                     std::to_string(run.traffic.total_messages)});
  }
  central.print(std::cout);

  // --- Decentralized gossip detector across host counts ------------------
  std::cout << "\nDecentralized epidemic detector (gossip max of last-active "
               "round):\n";
  const auto& spec = dataset_by_name("slashdot-like");
  const auto g = spec.build(options.scale, options.base_seed);
  kcore::util::TableWriter gossip({"hosts", "gossip_rounds", "detect_round",
                                   "control_msgs", "log2(hosts)"});
  std::vector<std::uint32_t> host_counts{4, 16, 64, 256};
  if (options.quick) host_counts = {4, 16};
  for (const auto hosts : host_counts) {
    // Run the decomposition to get realistic per-host last-activity rounds.
    kcore::api::RunOptions run_options;
    run_options.num_hosts = hosts;
    run_options.seed = options.base_seed;
    const auto run =
        kcore::api::decompose(g, kcore::api::kProtocolOneToMany, run_options);
    const auto owner = kcore::core::assign_nodes(
        g.num_nodes(), hosts, run_options.assignment, run_options.seed);
    const auto overlay = kcore::agg::build_host_overlay(g, owner, hosts);
    // Each host aggregates the real last round in which it generated a
    // new estimate (most hosts go quiet early; a few carry the tail).
    const auto& last_active =
        std::get<kcore::api::OneToManyExtras>(run.extras)
            .last_send_round_by_host;
    kcore::agg::GossipTerminationConfig gossip_config;
    gossip_config.seed = options.base_seed;
    const auto detection =
        kcore::agg::gossip_termination(overlay, last_active, gossip_config);
    double log2_hosts = 0;
    for (std::uint32_t h = hosts; h > 1; h >>= 1) ++log2_hosts;
    gossip.add_row({std::to_string(hosts),
                    std::to_string(detection.rounds_to_converge),
                    std::to_string(detection.rounds_to_detect),
                    std::to_string(detection.control_messages),
                    kcore::util::fmt_double(log2_hosts, 0)});
  }
  gossip.print(std::cout);
  std::cout << "\nShape check vs paper/[6]: gossip convergence rounds grow "
               "logarithmically in\nthe number of hosts, not linearly.\n";
  return 0;
}

int main() { return kcore::bench::run_main(bench_main); }
