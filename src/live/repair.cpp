#include "live/repair.h"

#include "par/engine.h"
#include "par/relax.h"
#include "util/check.h"
#include "util/clock.h"

namespace kcore::live {

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
  RepairStats stats = repair();
  order_.build();
  const std::optional<NodeId> bad = first_mismatch();
  KCORE_CHECK_MSG(!bad, "converged estimate of node "
                            << *bad << " is not its coreness "
                            << order_.level(*bad));
  return stats;
}

std::optional<NodeId> RepairEngine::warm_start(
    const std::vector<NodeId>& coreness) {
  KCORE_CHECK_MSG(coreness.size() == tables_.est.size(),
                  "warm_start table size " << coreness.size()
                                           << " != node count "
                                           << tables_.est.size());
  const NodeId n = graph_.num_nodes();
  for (NodeId u = 0; u < n; ++u) {
    tables_.est[u].store(coreness[u], std::memory_order_relaxed);
  }
  // Supports counted against the old table may overstate the adopted
  // one: restart from the trivial bound.
  if (tables_.one_worker) tables_.one_worker->counts.forget_support();
  order_.build();
  return first_mismatch();
}

std::optional<NodeId> RepairEngine::first_mismatch() const {
  const NodeId n = graph_.num_nodes();
  for (NodeId u = 0; u < n; ++u) {
    if (estimate(u) != order_.level(u)) return u;
  }
  return std::nullopt;
}

void RepairEngine::note_insert(NodeId u, NodeId v) {
  const auto& rising = order_.insert(u, v);
  for (const NodeId w : rising) {
    // The new coreness K+1; restores Theorem 2 safety so the downward
    // relaxation below is exact again.
    tables_.est[w].store(order_.level(w), std::memory_order_relaxed);
    mark_pending(w);
  }
  raised_pending_ += rising.size();
  visited_pending_ += order_.visited();
  mark_pending(u);
  mark_pending(v);
}

void RepairEngine::note_remove(NodeId u, NodeId v) {
  order_.note_remove(u, v);
  mark_pending(u);
  mark_pending(v);
}

RepairStats RepairEngine::repair() {
  RepairStats stats;
  if (pending_.empty()) return stats;
  const auto start = Clock::now();

  tables_.reset_queue();
  const unsigned workers = tables_.workers();
  for (std::size_t i = 0; i < pending_.size(); ++i) {
    const NodeId u = pending_[i];
    in_pending_[u] = 0;
    tables_.seed(u, static_cast<unsigned>(i) % workers, estimate(u));
  }
  stats.seeded = pending_.size();
  stats.raised = raised_pending_;
  stats.region_visited = visited_pending_;
  pending_.clear();
  raised_pending_ = 0;
  visited_pending_ = 0;

  const par::AsyncStats run =
      par::relax(graph_, tables_, options_.targeted_send, nullptr);
  stats.relaxations = run.relaxations;
  stats.steals = run.steals;
  stats.pop_scans = run.pop_scans;
  stats.detector_passes = run.detector_passes;
  stats.skipped_recomputes = run.skipped_recomputes;
  order_.settle([this](NodeId x) { return estimate(x); });
  stats.repair_ms = util::ms_between(start, Clock::now());
  return stats;
}

void RepairEngine::copy_coreness(std::vector<NodeId>& out) const {
  tables_.copy_estimates(out);
}

}  // namespace kcore::live
