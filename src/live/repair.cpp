#include "live/repair.h"

#include <algorithm>

#include "par/engine.h"
#include "par/relax.h"
#include "util/check.h"
#include "util/clock.h"

namespace kcore::live {

using core::SchedPolicy;
using graph::NodeId;
using Clock = util::SteadyClock;

RepairEngine::RepairEngine(const LiveGraph& graph,
                           const RepairOptions& options)
    : graph_(graph),
      options_(options),
      tables_(par::AsyncPrepared{par::resolve_workers(options.threads,
                                                      graph.num_nodes()),
                                 options.sched,
                                 {}},
              graph.num_nodes()) {
  const NodeId n = graph.num_nodes();
  for (NodeId u = 0; u < n; ++u) {
    tables_.est[u].store(graph.degree(u), std::memory_order_relaxed);
  }
  in_pending_.assign(n, 0);
  region_.in_region.assign(n, 0);
}

void RepairEngine::mark_pending(NodeId u) {
  if (in_pending_[u]) return;
  in_pending_[u] = 1;
  pending_.push_back(u);
}

RepairStats RepairEngine::initialize() {
  const NodeId n = graph_.num_nodes();
  for (NodeId u = 0; u < n; ++u) {
    tables_.est[u].store(graph_.degree(u), std::memory_order_relaxed);
    mark_pending(u);
  }
  return repair();
}

void RepairEngine::warm_start(const std::vector<NodeId>& coreness) {
  KCORE_CHECK_MSG(coreness.size() == tables_.est.size(),
                  "warm_start table size " << coreness.size()
                                           << " != node count "
                                           << tables_.est.size());
  const NodeId n = graph_.num_nodes();
  for (NodeId u = 0; u < n; ++u) {
    tables_.est[u].store(coreness[u], std::memory_order_relaxed);
  }
}

void RepairEngine::note_insert(NodeId u, NodeId v) {
  const NodeId K = std::min(tables_.est[u].load(std::memory_order_relaxed),
                            tables_.est[v].load(std::memory_order_relaxed));
  const auto& region = core::subcore_region(
      u, v, K,
      [this](NodeId w) { return tables_.est[w].load(std::memory_order_relaxed); },
      [this](NodeId w) { return graph_.neighbors(w); }, region_);
  for (const NodeId w : region) {
    // The provable post-insertion upper bound; restores Theorem 2 safety
    // so the downward relaxation below is exact again.
    tables_.est[w].store(std::min<NodeId>(K + 1, graph_.degree(w)),
                  std::memory_order_relaxed);
    mark_pending(w);
  }
  raised_pending_ += region.size();
  mark_pending(u);
  mark_pending(v);
}

void RepairEngine::note_remove(NodeId u, NodeId v) {
  mark_pending(u);
  mark_pending(v);
}

RepairStats RepairEngine::repair() {
  RepairStats stats;
  if (pending_.empty()) return stats;
  const auto start = Clock::now();

  par::AsyncWorklist& worklist = *tables_.worklist;
  worklist.reset();
  for (std::size_t i = 0; i < pending_.size(); ++i) {
    const NodeId u = pending_[i];
    in_pending_[u] = 0;
    const std::uint32_t bucket =
        options_.sched == SchedPolicy::kBound
            ? par::bound_bucket(tables_.est[u].load(std::memory_order_relaxed))
            : 0;
    worklist.seed(u, static_cast<unsigned>(i) % worklist.workers(), bucket);
  }
  stats.seeded = pending_.size();
  stats.raised = raised_pending_;
  pending_.clear();
  raised_pending_ = 0;

  const par::AsyncStats run =
      par::relax(graph_, tables_, options_.targeted_send, nullptr);
  stats.relaxations = run.relaxations;
  stats.steals = run.steals;
  stats.pop_scans = run.pop_scans;
  stats.detector_passes = run.detector_passes;
  stats.skipped_recomputes = run.skipped_recomputes;
  stats.repair_ms = util::ms_between(start, Clock::now());
  return stats;
}

void RepairEngine::copy_coreness(std::vector<NodeId>& out) const {
  const NodeId n = graph_.num_nodes();
  out.resize(n);
  for (NodeId u = 0; u < n; ++u) {
    out[u] = tables_.est[u].load(std::memory_order_relaxed);
  }
}

}  // namespace kcore::live
