// Incremental coreness repair on the async runtime.
//
// The paper's locality claim, executed as a service primitive: the
// engine keeps a persistent shared atomic estimate table over a
// LiveGraph and, after each topology change, re-establishes the exact
// fixed point by chaotic relaxation seeded ONLY with the perturbed
// region — not the whole graph. The relaxation is par::relax
// (par/relax.h), the same kernel the bsp-async engine runs, started from
// a warm table instead of the degrees; the insertion region is
// core::subcore_region (core/subcore_region.h), shared with
// core::DynamicKCore.
//
// Why warm-starting is exact (core/dynamic.h has the full argument):
//  * a DELETION only lowers coreness, so the converged table is still a
//    safe upper bound — re-activating the two endpoints and relaxing
//    downward restores exactness (Theorem 2 applies verbatim);
//  * an INSERTION may under-estimate, so before seeding, the K-subcore
//    candidate region around the endpoints (K = min(est(u), est(v))) is
//    raised to min(K+1, degree) — the provable upper bound — after which
//    downward relaxation is again exact. Raises are computed one edge at
//    a time against exact estimates, which keeps them exact in turn.
//
// Thread contract: initialize(), note_insert(), note_remove() and
// repair() are called by ONE writer thread; repair() spawns and joins
// the worker pool internally, so the estimate table is never mutated
// concurrently with the notes. Readers of the published coreness never
// touch this class (live::Service hands them immutable snapshots).
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "core/run_options.h"
#include "core/subcore_region.h"
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
  /// Nodes seeded into the worklist (endpoints + raised candidate
  /// regions) — the localized dirty set the run started from.
  std::uint64_t seeded = 0;
  /// Estimates lifted by the insertion safety rule (candidate-region
  /// size summed over the batch's insertions).
  std::uint64_t raised = 0;
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
  RepairEngine(const LiveGraph& graph, const RepairOptions& options);

  /// Full from-scratch convergence: estimate = degree, every node
  /// seeded — Algorithm 1's initialization on the async runtime.
  RepairStats initialize();

  /// Adopt `coreness` as the already-converged table without relaxing
  /// anything — the recovery path. The caller vouches the table is exact
  /// for the CURRENT topology (a CRC-validated checkpoint); Theorems 1–2
  /// make every subsequent note_*/repair() cycle exact from here, so a
  /// restart pays zero relaxations instead of a full recompute. Size
  /// must match the node count.
  void warm_start(const std::vector<graph::NodeId>& coreness);

  /// Record an insertion of {u,v} that was ALREADY applied to the graph:
  /// raises the K-subcore candidate region and marks it dirty. Must run
  /// between repairs (the table is exact when it executes).
  void note_insert(graph::NodeId u, graph::NodeId v);

  /// Record a deletion of {u,v} already applied to the graph: the table
  /// is now a safe upper bound; only the endpoints need re-activation.
  void note_remove(graph::NodeId u, graph::NodeId v);

  /// Relax the pending dirty set to quiescence; returns the run's cost
  /// and clears the pending set. A no-op (all-zero stats) when nothing
  /// is pending.
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

  const LiveGraph& graph_;
  RepairOptions options_;
  par::AsyncRunContext tables_;  // kept warm across repairs
  std::vector<graph::NodeId> pending_;   // dirty set for the next repair
  std::vector<std::uint8_t> in_pending_;
  std::uint64_t raised_pending_ = 0;
  core::RegionScratch region_;
};

}  // namespace kcore::live
