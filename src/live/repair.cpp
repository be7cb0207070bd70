#include "live/repair.h"

#include <string>

#include "util/check.h"

namespace kcore::live {

using graph::NodeId;

RepairEngine::RepairEngine(const LiveGraph& graph,
                           const RepairOptions& /*options*/)
    : graph_(graph) {}

void RepairEngine::initialize() { order_.build(); }

std::optional<std::string> RepairEngine::warm_start(
    const std::vector<NodeId>& coreness, std::span<const NodeId> order) {
  const NodeId n = graph_.num_nodes();
  KCORE_CHECK_MSG(coreness.size() == n, "warm_start table size "
                                            << coreness.size()
                                            << " != node count " << n);
  if (!order.empty()) return order_.adopt(coreness, order);
  order_.build();
  for (NodeId u = 0; u < n; ++u) {
    if (coreness[u] != order_.level(u)) {
      return "node " + std::to_string(u) + " is stored at " +
             std::to_string(coreness[u]) + ", the bucket peel gives " +
             std::to_string(order_.level(u));
    }
  }
  return std::nullopt;
}

void RepairEngine::note_insert(NodeId u, NodeId v) {
  noted_.raised += order_.insert(u, v).size();
  noted_.region_visited += order_.visited();
}

void RepairEngine::note_remove(NodeId u, NodeId v) {
  noted_.dropped += order_.remove(u, v).size();
  noted_.removal_visited += order_.visited();
}

RepairStats RepairEngine::repair() {
  const RepairStats stats = noted_;
  noted_ = {};
  return stats;
}

void RepairEngine::copy_coreness(std::vector<NodeId>& out) const {
  const std::span<const NodeId> levels = order_.levels();
  out.assign(levels.begin(), levels.end());
}

}  // namespace kcore::live
