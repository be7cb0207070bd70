// Ablation: the Pregel port (§6 "we are considering ... Pregel [9]").
//
// Compares the BSP k-core port against the round-engine one-to-one
// protocol (supersteps vs rounds, message volume), and demonstrates what
// Pregel combiners buy on MIN-combinable workloads — k-core itself cannot
// combine (receivers need per-neighbor estimates), which is a real and
// quantified cost of the port.
#include <iostream>
#include <variant>

#include "api/api.h"
#include "bench_main.h"
#include "bsp/programs.h"
#include "core/assignment.h"
#include "eval/datasets.h"
#include "eval/experiments.h"
#include "util/table.h"

static int bench_main() {
  using namespace kcore::eval;
  const auto options = ExperimentOptions::from_env();
  std::cout << "== bench: ablation — BSP (Pregel) port ==\n"
            << "scale=" << options.scale << ", 16 workers, modulo "
            << "assignment\n\n";

  std::cout << "k-core: BSP port vs round-engine protocol (synchronous, "
               "targeted send):\n";
  kcore::util::TableWriter kcore_table(
      {"profile", "supersteps", "t_rounds", "bsp_emitted", "bsp_crossworker",
       "engine_msgs", "exact"});
  for (const auto& spec : dataset_registry()) {
    if (options.quick && spec.name != "gnutella-like") continue;
    const auto g = spec.build(options.scale * 0.5, options.base_seed);
    kcore::api::RunOptions bsp_options;
    bsp_options.num_hosts = 16;
    const auto bsp =
        kcore::api::decompose(g, kcore::api::kProtocolBsp, bsp_options);
    const auto& bsp_stats =
        std::get<kcore::api::BspExtras>(bsp.extras).stats;
    kcore::api::RunOptions engine_options;
    engine_options.mode = kcore::sim::DeliveryMode::kSynchronous;
    const auto engine = kcore::api::decompose(
        g, kcore::api::kProtocolOneToOne, engine_options);
    kcore_table.add_row(
        {spec.name, std::to_string(bsp_stats.supersteps),
         std::to_string(engine.traffic.execution_time),
         std::to_string(bsp_stats.messages_emitted),
         std::to_string(bsp_stats.messages_cross_worker),
         std::to_string(engine.traffic.total_messages),
         bsp.coreness == engine.coreness ? "yes" : "NO"});
  }
  kcore_table.print(std::cout);

  std::cout << "\nCombiner effect on MIN-combinable programs (label "
               "propagation), same graphs:\n";
  kcore::util::TableWriter combiner_table(
      {"profile", "emitted", "delivered", "compression"});
  for (const auto& spec : dataset_registry()) {
    if (options.quick && spec.name != "gnutella-like") continue;
    const auto g = spec.build(options.scale * 0.5, options.base_seed);
    auto owner = kcore::core::assign_nodes(
        g.num_nodes(), 16, kcore::core::AssignmentPolicy::kModulo);
    kcore::bsp::PregelEngine<kcore::bsp::MinLabelProgram> engine(
        &g, std::move(owner), 16);
    const auto stats = engine.run();
    combiner_table.add_row(
        {spec.name, std::to_string(stats.messages_emitted),
         std::to_string(stats.messages_delivered),
         kcore::util::fmt_double(
             static_cast<double>(stats.messages_emitted) /
                 static_cast<double>(std::max<std::uint64_t>(
                     1, stats.messages_delivered)),
             2) +
             "x"});
  }
  combiner_table.print(std::cout);
  std::cout << "\nReading: the k-core vertex program emits the same update "
               "stream as the\nnative protocol (no combiner applies), so a "
               "Pregel deployment pays full\nmessage volume — batching per "
               "worker (Algorithm 3) is the paper's answer.\n";
  return 0;
}

int main() { return kcore::bench::run_main(bench_main); }
