// The one-to-many distributed k-core protocol (§3.2, Algorithms 3, 4, 5).
//
// A host x is responsible for a set of nodes V(x). It keeps estimates for
// V(x) and for every external neighbor of V(x) (one combined est[] array,
// exactly as the paper prescribes). Whenever new information arrives, the
// host "internally emulates" the one-to-one protocol to a local fixed
// point (improveEstimate, Algorithm 4) before any communication happens;
// only then are changed estimates shipped to neighboring hosts.
//
// Implementation note: Algorithm 4 is written as repeated full sweeps over
// V(x). We run the identical fixed-point computation with a worklist
// seeded by the nodes whose neighborhood actually changed. The operator
// est[u] <- computeIndex(est, u, est[u]) is monotone non-increasing with a
// unique fixed point given the external inputs, so sweep order and
// worklist order converge to the same estimates; the worklist simply skips
// provably unchanged nodes (important when one host owns 10^5 nodes).
//
// Two communication policies (§3.2.1):
//  * kBroadcast    — one message per flush carrying every changed owned
//    estimate, delivered to all neighboring hosts (models a broadcast
//    medium; each changed estimate is counted ONCE in the overhead
//    metric, which is what makes the left plot of Figure 5 flat).
//  * kPointToPoint — Algorithm 5: a per-destination message containing
//    only the estimates relevant to that host (each changed estimate is
//    counted once PER destination host).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/assignment.h"
#include "core/compute_index.h"
#include "core/one_to_one.h"
#include "core/run_options.h"
#include "graph/graph.h"
#include "sim/engine.h"

namespace kcore::core {

// CommPolicy (§3.2.1) and its to_string live in core/run_options.h, next
// to the shared RunOptions struct that names it.

/// Protocol state machine for one host owning many nodes.
class OneToManyHost {
 public:
  /// A batch of estimate updates (the paper's set S).
  using Message = std::vector<NodeEstimate>;

  /// `graph` must outlive the host; `owner` is read only here. owner[u]
  /// gives the host responsible for node u and must be consistent across
  /// all hosts.
  OneToManyHost(const graph::Graph* graph,
                const std::vector<sim::HostId>* owner, sim::HostId self,
                CommPolicy policy);

  void on_message(sim::HostId from, const Message& m);

  void on_round(sim::Context<Message>& ctx);

  /// Write the current estimate of every owned node u into out[u]
  /// (entries of non-owned nodes are left untouched).
  void snapshot_into(std::span<graph::NodeId> out) const;

  /// Overhead numerator for Figure 5: number of (node, estimate) pairs this
  /// host has shipped, counted per the active policy's convention.
  [[nodiscard]] std::uint64_t estimates_shipped() const noexcept {
    return estimates_shipped_;
  }

  [[nodiscard]] std::uint64_t last_send_round() const noexcept {
    return last_send_round_;
  }

  [[nodiscard]] std::span<const graph::NodeId> owned_nodes() const noexcept {
    return owned_;
  }

 private:
  /// Local index of a global node id, or SIZE_MAX when unknown here.
  [[nodiscard]] std::size_t local_index(graph::NodeId global) const;

  /// Enqueue every owned node adjacent to local node `l`.
  void wake_owned_neighbors(std::size_t l);

  /// Algorithm 4: run local estimates to their fixed point.
  void improve_estimates();

  const graph::Graph* graph_;
  CommPolicy policy_;

  // --- static topology view (built once in the constructor) ---
  std::vector<graph::NodeId> owned_;        // sorted global ids of V(x)
  std::vector<graph::NodeId> local_nodes_;  // sorted: V(x) ∪ neighborV(x)
  std::vector<std::uint32_t> owned_local_;  // owned index -> local index
  // adjacency of owned nodes in local indices (CSR over owned index)
  std::vector<std::uint64_t> own_adj_offsets_;
  std::vector<std::uint32_t> own_adj_;
  // reverse: local node -> owned indices that are its neighbors (CSR)
  std::vector<std::uint64_t> rev_offsets_;
  std::vector<std::uint32_t> rev_;
  std::vector<sim::HostId> neighbor_hosts_;  // sorted, excludes self
  // p2p: owned index -> indices into neighbor_hosts_ needing its updates
  std::vector<std::uint64_t> dest_offsets_;
  std::vector<std::uint32_t> dest_;

  // --- dynamic state ---
  std::vector<graph::NodeId> est_;  // per local node
  std::vector<bool> changed_;       // per owned index
  std::vector<std::uint32_t> worklist_;
  std::vector<bool> in_worklist_;   // per owned index
  std::vector<graph::NodeId> gather_;   // scratch: neighbor estimates
  std::vector<graph::NodeId> scratch_;  // scratch: computeIndex counts
  std::uint64_t estimates_shipped_ = 0;
  std::uint64_t last_send_round_ = 0;
};

/// Configuration for a one-to-many run: the shared option set. Consumed
/// fields: num_hosts, comm, assignment, mode, seed, max_rounds
/// (0 = automatic), faults. targeted_send is ignored — the host-level
/// batching of Algorithm 3 subsumes the §3.1.2 per-edge filter.
using OneToManyConfig = RunOptions;

struct OneToManyResult {
  std::vector<graph::NodeId> coreness;
  sim::TrafficStats traffic;
  /// Total (node, estimate) pairs shipped across host boundaries.
  std::uint64_t estimates_shipped_total = 0;
  /// Figure 5 metric: estimates_shipped_total / num_nodes.
  double overhead_per_node = 0.0;
  std::vector<std::uint64_t> estimates_shipped_by_host;
  /// Per-host round of last send (0 = never sent); the input to the §3.3
  /// decentralized termination detector.
  std::vector<std::uint64_t> last_send_round_by_host;
};

/// Build the host state machines for a run — the amortizable setup: the
/// §3.2.2 assignment of config.num_hosts hosts (config.assignment under
/// config.seed), then one OneToManyHost per host id under config.comm.
/// Shared by the simulated runner and par's real-thread runner, so both
/// drive identical protocol state. A built vector is pristine: copy it
/// into run_one_to_many_prepared to execute the same request repeatedly.
[[nodiscard]] std::vector<OneToManyHost> make_one_to_many_hosts(
    const graph::Graph& g, const OneToManyConfig& config);

/// Harvest everything except `traffic` out of finished hosts (coreness,
/// shipped-estimate profile, overhead metric, last-send rounds). One
/// implementation keeps the simulated and real-thread runners from
/// drifting apart — their results must stay bit-identical.
[[nodiscard]] OneToManyResult harvest_one_to_many_result(
    const std::vector<OneToManyHost>& hosts, graph::NodeId num_nodes);

/// Drive pre-built hosts to quiescence. `hosts` is consumed (the engine
/// mutates it in place); callers that want to run the same request again
/// keep a pristine vector from make_one_to_many_hosts and pass a copy
/// each time. config.num_hosts/assignment/comm are ignored here — they
/// were baked into the hosts.
[[nodiscard]] OneToManyResult run_one_to_many_prepared(
    const graph::Graph& g, std::vector<OneToManyHost> hosts,
    const OneToManyConfig& config, const ProgressObserver& observer = {});

}  // namespace kcore::core
