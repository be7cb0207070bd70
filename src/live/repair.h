// Incremental coreness repair on the async runtime.
//
// The paper's locality claim, executed as a service primitive: the
// engine keeps a persistent shared atomic estimate table over a
// LiveGraph and, after each topology change, re-establishes the exact
// fixed point by chaotic relaxation seeded ONLY with the perturbed
// region — not the whole graph. The relaxation is par::relax
// (par/relax.h), the same kernel the bsp-async engine runs, started from
// a warm table instead of the degrees. Next to the table the engine
// keeps a k-order, core::CoreOrder (core/core_order.h, shared with
// core::DynamicKCore), which finds each insertion's rising set.
//
// Why warm-starting is exact (core/dynamic.h has the full argument):
//  * a DELETION only lowers coreness, so the converged table is still a
//    safe upper bound — re-activating the two endpoints and relaxing
//    downward restores exactness (Theorem 2 applies verbatim); the
//    k-order then moves the nodes that dropped (CoreOrder::settle);
//  * an INSERTION may under-estimate, so before seeding, the rising set
//    V* (the nodes whose coreness goes from K = min(est(u), est(v)) to
//    K+1) is raised to K+1, after which downward relaxation is again
//    exact. The k-order finds V* visiting only the nodes of level K
//    after the earlier endpoint that gained a candidate neighbor, not the
//    whole K-subcore. Raises are computed one edge at a time against
//    exact estimates, which keeps them exact in turn.
//
// Thread contract: initialize(), warm_start(), note_insert(),
// note_remove() and repair() are called by ONE writer thread; repair()
// spawns and joins the worker pool internally, so the estimate table is
// never mutated concurrently with the notes, and the k-order is only
// touched by the writer. Readers of the published coreness never touch
// this class (live::Service hands them immutable snapshots).
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <vector>

#include "core/run_options.h"
#include "core/core_order.h"
#include "graph/graph.h"
#include "live/live_graph.h"
#include "par/async_engine.h"

namespace kcore::live {

struct RepairOptions {
  unsigned threads = 0;  // 0 = hardware concurrency
  core::SchedPolicy sched = core::SchedPolicy::kBound;
  bool targeted_send = true;
};

/// Cost of one repair run (or of initialize()'s full convergence).
struct RepairStats {
  /// Nodes seeded into the worklist (endpoints + raised rising sets) —
  /// the localized dirty set the run started from.
  std::uint64_t seeded = 0;
  /// Estimates lifted by the insertion safety rule (rising-set size
  /// summed over the batch's insertions).
  std::uint64_t raised = 0;
  /// Nodes the insertion passes visited (CoreOrder::insert's heap pops,
  /// summed over the batch's insertions).
  std::uint64_t region_visited = 0;
  std::uint64_t relaxations = 0;
  std::uint64_t steals = 0;
  std::uint64_t pop_scans = 0;
  std::uint64_t detector_passes = 0;
  std::uint64_t skipped_recomputes = 0;
  double repair_ms = 0.0;
};

class RepairEngine {
 public:
  /// The graph reference must outlive the engine; the node count is
  /// fixed at construction (live updates rewire edges, never add nodes).
  /// Call initialize() or warm_start() before the first note.
  RepairEngine(const LiveGraph& graph, const RepairOptions& options);

  /// Full from-scratch convergence: estimate = degree, every node
  /// seeded — Algorithm 1's initialization on the async runtime — then
  /// the k-order's bucket peel, which must agree with the table.
  RepairStats initialize();

  /// Adopt `coreness` as the already-converged table without relaxing
  /// anything — the recovery path; Theorems 1–2 make every subsequent
  /// note_*/repair() cycle exact from here, so a restart pays zero
  /// relaxations instead of a full recompute. The k-order's O(n + m)
  /// bucket peel checks the table: returns the first node whose entry
  /// is not its coreness in the CURRENT topology (nullopt when the table
  /// is exact); the engine must not be used after a mismatch. Size must
  /// match the node count.
  std::optional<graph::NodeId> warm_start(
      const std::vector<graph::NodeId>& coreness);

  /// Record an insertion of {u,v} that was ALREADY applied to the graph:
  /// raises the rising set (CoreOrder::insert) and marks it dirty. Must
  /// run between repairs, before any note_remove() of the same batch
  /// (the table is exact when it executes).
  void note_insert(graph::NodeId u, graph::NodeId v);

  /// Record a deletion of {u,v} already applied to the graph: the table
  /// is now a safe upper bound; only the endpoints need re-activation.
  void note_remove(graph::NodeId u, graph::NodeId v);

  /// Relax the pending dirty set to quiescence, then settle the k-order;
  /// returns the run's cost and clears the pending set. A no-op (all-zero
  /// stats) when nothing is pending.
  RepairStats repair();

  [[nodiscard]] unsigned workers() const noexcept {
    return tables_.worklist->workers();
  }
  [[nodiscard]] core::SchedPolicy sched() const noexcept {
    return options_.sched;
  }
  /// Current exact estimate of one node (between repairs).
  [[nodiscard]] graph::NodeId estimate(graph::NodeId u) const {
    return tables_.est[u].load(std::memory_order_relaxed);
  }
  /// Copy the converged table (between repairs).
  void copy_coreness(std::vector<graph::NodeId>& out) const;

 private:
  void mark_pending(graph::NodeId u);
  /// The first node whose estimate is not its level in the k-order.
  [[nodiscard]] std::optional<graph::NodeId> first_mismatch() const;

  const LiveGraph& graph_;
  RepairOptions options_;
  par::AsyncRunContext tables_;  // kept warm across repairs
  std::vector<graph::NodeId> pending_;   // dirty set for the next repair
  std::vector<std::uint8_t> in_pending_;
  std::uint64_t raised_pending_ = 0;
  std::uint64_t visited_pending_ = 0;
  core::CoreOrder order_{graph_};
};

}  // namespace kcore::live
