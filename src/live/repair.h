// Incremental coreness repair over a LiveGraph.
//
// The paper's locality claim, executed as a service primitive: the
// engine keeps an exact coreness table over a LiveGraph and, after each
// topology change, re-establishes it by touching only the perturbed
// region — not the whole graph. The table is the level table of a
// k-order, core::CoreOrder (core/core_order.h, shared with
// core::DynamicKCore): initialize() lays the order out with one bucket
// peel, warm_start() adopts a checkpoint's.
//
// Every edge is noted right after it is applied, against a table that is
// exact for the graph before it, and the table is exact again when the
// note returns:
//  * an INSERTION may raise coreness: the rising set V* (the nodes whose
//    coreness goes from K = min(est(u), est(v)) to K+1) is raised to K+1.
//    The k-order finds V* visiting only the nodes of level K after the
//    earlier endpoint that gained a candidate neighbor, not the whole
//    K-subcore (CoreOrder::insert);
//  * a DELETION may lower coreness: the falling set (the nodes whose
//    coreness goes from K to K-1) is lowered to K-1. Only the level-K
//    nodes whose support count falls below K are recounted
//    (CoreOrder::remove).
// repair() relaxes nothing; it hands back the notes' counts.
//
// Thread contract: every call is made by ONE writer thread. Readers of
// the published coreness never touch this class (live::Service hands
// them immutable snapshots).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/run_options.h"
#include "core/core_order.h"
#include "graph/graph.h"
#include "live/live_graph.h"

namespace kcore::live {

/// Ignored; removed with perfbench's `Replayer` in the benchmark change
/// (ROADMAP item 7). The engine repairs on its caller's thread.
struct RepairOptions {
  unsigned threads = 0;
  core::SchedPolicy sched = core::SchedPolicy::kBound;
  bool targeted_send = true;
};

/// The notes' counts since the last repair().
struct RepairStats {
  /// Estimates lifted by the insertions (rising-set sizes summed over
  /// the batch's insertions).
  std::uint64_t raised = 0;
  /// Nodes the insertion passes visited (CoreOrder::insert's heap pops,
  /// summed over the batch's insertions).
  std::uint64_t region_visited = 0;
  /// Levels the deletions lowered, summed over the nodes (a node that
  /// falls from K to K-2 counts twice) — the mirror of `raised`: the
  /// falling-set sizes summed over the batch's deletions.
  std::uint64_t dropped = 0;
  /// Nodes whose neighbors the removal passes read (CoreOrder::remove's
  /// recounts and falls, summed over the batch's deletions).
  std::uint64_t removal_visited = 0;
  /// Always 0: nothing relaxes. Removed with perfbench's `Replayer` in
  /// the benchmark change (ROADMAP item 7).
  std::uint64_t relaxations = 0;
};

class RepairEngine {
 public:
  /// The graph reference must outlive the engine; the node count is
  /// fixed at construction (live updates rewire edges, never add nodes).
  /// `options` is ignored (see RepairOptions). Call initialize() or
  /// warm_start() before the first note.
  RepairEngine(const LiveGraph& graph, const RepairOptions& options);

  /// From scratch: the k-order's bucket peel (CoreOrder::build).
  void initialize();

  /// Adopt `coreness` as the table without a peel's layout — the
  /// recovery path. The table is checked against the CURRENT topology
  /// first. With a stored k-order `order` (copy_order() of the engine
  /// that wrote the table), the order is adopted after CoreOrder::adopt's
  /// O(n + m) certificate; without one, the k-order's bucket peel is
  /// rebuilt and compared entry by entry. Returns the node and the check
  /// that failed (nullopt when the table is exact); the engine must not
  /// be used after a failure. Sizes must match the node count.
  std::optional<std::string> warm_start(
      const std::vector<graph::NodeId>& coreness,
      std::span<const graph::NodeId> order = {});

  /// Record an insertion of {u,v} that was ALREADY applied to the graph:
  /// raises the rising set (CoreOrder::insert).
  void note_insert(graph::NodeId u, graph::NodeId v);

  /// Record a deletion of {u,v} already applied to the graph: lowers the
  /// falling set (CoreOrder::remove).
  void note_remove(graph::NodeId u, graph::NodeId v);

  /// Return the notes' counts since the last repair() and clear them.
  RepairStats repair();

  /// Current exact coreness of one node.
  [[nodiscard]] graph::NodeId estimate(graph::NodeId u) const {
    return order_.level(u);
  }
  /// Copy the table.
  void copy_coreness(std::vector<graph::NodeId>& out) const;
  /// Copy the k-order: what warm_start() adopts.
  void copy_order(std::vector<graph::NodeId>& out) const {
    order_.copy_order(out);
  }

 private:
  const LiveGraph& graph_;
  RepairStats noted_;  // the notes' counts since the last repair()
  core::CoreOrder order_{graph_};
};

}  // namespace kcore::live
