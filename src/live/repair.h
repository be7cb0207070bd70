// Incremental coreness repair over a LiveGraph.
//
// The paper's locality claim, executed as a service primitive: the
// engine keeps an exact coreness table over a LiveGraph and, after each
// topology change, re-establishes it by touching only the perturbed
// region — not the whole graph. initialize() converges the table from
// the degrees with par::relax (par/relax.h), the same kernel the
// bsp-async engine runs. Next to the table the engine keeps a k-order,
// core::CoreOrder (core/core_order.h, shared with core::DynamicKCore),
// which finds each insertion's rising set.
//
// Every edge is noted right after it is applied, against a table that is
// exact for the graph before it:
//  * an INSERTION may raise coreness: the rising set V* (the nodes whose
//    coreness goes from K = min(est(u), est(v)) to K+1) is raised to K+1.
//    The k-order finds V* visiting only the nodes of level K after the
//    earlier endpoint that gained a candidate neighbor, not the whole
//    K-subcore;
//  * a DELETION may lower coreness. How depends on the worker count:
//     - at one worker the k-order finds the falling set the same way
//       (CoreOrder::remove: only the level-K nodes whose support count
//       falls below K are recounted), and lowers it to K-1. The table is
//       exact after every note, so repair() has nothing left to do;
//     - on the pool (two or more workers) the table is a safe upper bound
//       after a deletion: the endpoints are seeded, repair() relaxes
//       downward from them and the raised sets (Theorem 2 applies
//       verbatim; core/dynamic.h has the full argument), and the k-order
//       then moves the nodes that dropped (CoreOrder::settle). This
//       route, run at two workers, is the oracle the one-worker route is
//       tested against.
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
#include <span>
#include <string>
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
  /// the localized dirty set the run started from. 0 at one worker
  /// after initialize(): the notes leave nothing to relax.
  std::uint64_t seeded = 0;
  /// Estimates lifted by the insertion safety rule (rising-set size
  /// summed over the batch's insertions).
  std::uint64_t raised = 0;
  /// Nodes the insertion passes visited (CoreOrder::insert's heap pops,
  /// summed over the batch's insertions).
  std::uint64_t region_visited = 0;
  /// Levels the batch's deletions lowered, summed over the nodes (a node
  /// that falls from K to K-2 counts twice) — the mirror of `raised`.
  /// At one worker the falling-set sizes summed over the deletions; on
  /// the pool CoreOrder::settle's sum. Both routes give the same count
  /// for the same batch.
  std::uint64_t dropped = 0;
  /// Nodes whose neighbors the removal passes read (CoreOrder::remove's
  /// recounts and falls, summed over the batch's deletions); 0 on the
  /// pool.
  std::uint64_t removal_visited = 0;
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
  /// relaxations instead of a full recompute. The table is checked
  /// against the CURRENT topology first. With a stored k-order `order`
  /// (copy_order() of the engine that wrote the table), the order is
  /// adopted after CoreOrder::adopt's O(n + m) certificate; without one,
  /// the k-order's bucket peel is rebuilt and compared entry by entry.
  /// Returns the node and the check that failed (nullopt when the table
  /// is exact); the engine must not be used after a failure. Sizes must
  /// match the node count.
  std::optional<std::string> warm_start(
      const std::vector<graph::NodeId>& coreness,
      std::span<const graph::NodeId> order = {});

  /// Record an insertion of {u,v} that was ALREADY applied to the graph:
  /// raises the rising set (CoreOrder::insert); on the pool it also
  /// marks the set and the endpoints dirty. Must run between repairs,
  /// before any note_remove() of the same batch (the table is exact when
  /// it executes).
  void note_insert(graph::NodeId u, graph::NodeId v);

  /// Record a deletion of {u,v} already applied to the graph. At one
  /// worker it lowers the falling set (CoreOrder::remove) and the table
  /// stays exact; on the pool the table is now a safe upper bound and
  /// only the endpoints need re-activation.
  void note_remove(graph::NodeId u, graph::NodeId v);

  /// Relax the pending dirty set to quiescence, then settle the k-order;
  /// returns the cost of the notes since the last repair and of the run,
  /// and clears the pending set. Relaxes nothing when nothing is pending,
  /// as at one worker after initialize().
  RepairStats repair();

  [[nodiscard]] unsigned workers() const noexcept {
    return tables_.workers();
  }
  /// Current exact estimate of one node (between repairs).
  [[nodiscard]] graph::NodeId estimate(graph::NodeId u) const {
    return tables_.est[u].load(std::memory_order_relaxed);
  }
  /// Copy the converged table (between repairs).
  void copy_coreness(std::vector<graph::NodeId>& out) const;
  /// Copy the k-order (between repairs): what warm_start() adopts.
  void copy_order(std::vector<graph::NodeId>& out) const {
    order_.copy_order(out);
  }

 private:
  void mark_pending(graph::NodeId u);
  /// The first node whose estimate is not its level in the k-order.
  [[nodiscard]] std::optional<graph::NodeId> first_mismatch() const;

  const LiveGraph& graph_;
  RepairOptions options_;
  par::AsyncRunContext tables_;  // kept warm across repairs
  std::vector<graph::NodeId> pending_;   // dirty set for the next repair
  std::vector<std::uint8_t> in_pending_;
  RepairStats noted_;  // the notes' counts since the last repair()
  core::CoreOrder order_{graph_};
};

}  // namespace kcore::live
