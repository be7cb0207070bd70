#include "core/pregel_kcore.h"

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

namespace kcore::core {

PregelKCoreResult run_pregel_kcore_prepared(const graph::Graph& g,
                                            std::vector<bsp::WorkerId> owner,
                                            bsp::WorkerId num_workers,
                                            bool targeted_send,
                                            const ProgressObserver& observer,
                                            std::uint64_t max_supersteps) {
  PregelKCoreProgram program;
  program.targeted_send = targeted_send;
  bsp::PregelEngine<PregelKCoreProgram> engine(&g, std::move(owner),
                                               num_workers, program);
  const std::uint64_t cap = max_supersteps > 0 ? max_supersteps : 1000000;
  PregelKCoreResult result;
  if (observer) {
    std::vector<graph::NodeId> snapshot(g.num_nodes());
    result.stats = engine.run(
        [&](std::uint64_t superstep,
            std::span<const PregelKCoreProgram::Value> values,
            const bsp::BspStats& stats) {
          for (graph::NodeId u = 0; u < g.num_nodes(); ++u) {
            snapshot[u] = values[u].core;
          }
          observer(ProgressEvent{superstep + 1, snapshot,
                                 stats.messages_delivered});
        },
        cap);
  } else {
    result.stats = engine.run(cap);
  }
  result.coreness.reserve(g.num_nodes());
  for (const auto& value : engine.values()) {
    result.coreness.push_back(value.core);
  }
  return result;
}

}  // namespace kcore::core
