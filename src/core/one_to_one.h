// The one-to-one distributed k-core protocol (§3.1, Algorithms 1 + 2).
//
// Every graph node is its own host. Each node keeps
//   core     — its coreness estimate, initialized to its degree,
//   est[v]   — the freshest estimate received from each neighbor v
//              (+infinity until heard from),
//   changed  — dirty flag controlling the periodic flush.
// On receiving <v, k> with k < est[v] it lowers est[v] and recomputes its
// own estimate with computeIndex; every δ (= one simulator round) it
// broadcasts its estimate to its neighbors if changed.
//
// Implementation note: Algorithm 1 recomputes computeIndex after every
// message. We instead mark a dirty flag on receipt and recompute once per
// round before flushing. Because computeIndex with cap k equals
// min(k, I(est)) where I is monotone non-increasing in est, folding the
// per-message recomputations into one per round yields the identical
// estimate at every flush point — and therefore identical messages,
// rounds, and results — while avoiding O(degree) work per message on hubs.
//
// The §3.1.2 optimization ("targeted send": transmit to v only when
// core < est[v], i.e. when the update can possibly affect v) is switched
// by OneToOneConfig::targeted_send and is reproduced as the ~50% message
// saving in bench/ablation_optimizations.
#pragma once

#include <cstdint>
#include <vector>

#include "core/compute_index.h"
#include "core/run_options.h"
#include "graph/graph.h"
#include "sim/engine.h"

namespace kcore::core {

/// Estimate update message <node, estimate> of Algorithm 1.
struct NodeEstimate {
  graph::NodeId node = 0;
  graph::NodeId estimate = 0;

  friend bool operator==(const NodeEstimate&, const NodeEstimate&) = default;
};

/// Protocol state machine for a single node; plugs into sim::Engine.
class OneToOneNode {
 public:
  using Message = NodeEstimate;

  /// `graph` must outlive the node. `self` is both the node and host id.
  OneToOneNode(const graph::Graph* graph, graph::NodeId self,
               bool targeted_send)
      : graph_(graph),
        self_(self),
        targeted_send_(targeted_send),
        core_(graph->degree(self)),
        est_(graph->degree(self), kEstimateInfinity) {}

  void on_message(sim::HostId from, const Message& m);

  void on_round(sim::Context<Message>& ctx);

  /// Current coreness estimate (== true coreness after convergence).
  [[nodiscard]] graph::NodeId core() const noexcept { return core_; }

  /// Last round in which this node sent messages (0 = never); used by the
  /// termination-detection experiments.
  [[nodiscard]] std::uint64_t last_send_round() const noexcept {
    return last_send_round_;
  }

  /// Number of active<->quiet status flips over the run (feeds the
  /// centralized termination-detector cost model, §3.3).
  [[nodiscard]] std::uint64_t activity_transitions() const noexcept {
    return transitions_;
  }

 private:
  /// Index of `v` within this node's sorted neighbor list.
  [[nodiscard]] std::size_t slot_of(graph::NodeId v) const;

  const graph::Graph* graph_;
  graph::NodeId self_;
  bool targeted_send_;
  graph::NodeId core_;
  bool changed_ = true;      // "on initialization ... send" => dirty start
  bool recompute_ = false;   // estimates dirtied since last computeIndex
  bool prev_active_ = false;
  std::uint64_t transitions_ = 0;
  std::uint64_t last_send_round_ = 0;
  std::vector<graph::NodeId> est_;  // aligned with graph_->neighbors(self_)
};

/// Configuration for a one-to-one run: the shared option set. Consumed
/// fields: mode, targeted_send, seed, max_rounds (0 = a Theorem-5-derived
/// bound plus slack), faults. num_hosts/assignment/comm are ignored —
/// every node is its own host here.
using OneToOneConfig = RunOptions;

struct OneToOneResult {
  std::vector<graph::NodeId> coreness;  // final estimates
  sim::TrafficStats traffic;
  /// Per-node round of last send (activity profile used by the
  /// termination-detection analysis).
  std::vector<std::uint64_t> last_send_round;
  /// Per-node active<->quiet flips (control-message cost of §3.3's
  /// centralized detector).
  std::vector<std::uint64_t> activity_transitions;
};

/// Build the per-node protocol state machines — the amortizable setup of
/// a run (one OneToOneNode per node, estimate slots sized to the
/// degrees). A prepared vector is pristine: copy it and hand the copy to
/// run_one_to_one_prepared to execute the same request repeatedly.
[[nodiscard]] std::vector<OneToOneNode> make_one_to_one_nodes(
    const graph::Graph& g, bool targeted_send);

/// Drive pre-built nodes to quiescence. `nodes` is consumed (the engine
/// mutates it in place); config.targeted_send is ignored here — it was
/// baked into the nodes by make_one_to_one_nodes. The result's coreness
/// equals the true decomposition whenever traffic.converged is true
/// (Theorems 2+3).
[[nodiscard]] OneToOneResult run_one_to_one_prepared(
    const graph::Graph& g, std::vector<OneToOneNode> nodes,
    const OneToOneConfig& config, const ProgressObserver& observer = {});

}  // namespace kcore::core
