// k-core decomposition as a Pregel vertex program.
//
// The paper's conclusion proposes porting the algorithm to Pregel-style
// frameworks; this is that port, running Algorithm 1 inside the BSP model
// of src/bsp. Each vertex keeps its estimate and the freshest estimates
// of its neighbors; compute() applies computeIndex and re-broadcasts on
// change; vote_to_halt() makes Pregel's own termination detection play
// the role of §3.3 (a vertex is revived by any incoming message, and the
// job ends when every vertex has halted with no messages in flight —
// exactly the centralized master/slaves scheme, which a BSP barrier gives
// for free).
//
// Estimate messages cannot be combined into one value per target (the
// receiver needs per-neighbor estimates to evaluate computeIndex), so
// this program deliberately has no combiner; bench/ablation_bsp contrasts
// it with MIN-combinable programs to show the difference.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "bsp/pregel.h"
#include "core/assignment.h"
#include "core/compute_index.h"
#include "core/one_to_one.h"
#include "core/run_options.h"

namespace kcore::core {

struct PregelKCoreProgram {
  using Message = NodeEstimate;
  struct Value {
    graph::NodeId core = 0;
    /// est[i] for neighbors()[i], kEstimateInfinity until heard from.
    std::vector<graph::NodeId> est;
  };

  /// §3.1.2 targeted-send optimization toggle.
  bool targeted_send = true;

  void init(bsp::VertexContext<Message>& ctx, Value& value) {
    value.core = ctx.degree();
    value.est.assign(ctx.degree(), kEstimateInfinity);
    ctx.send_to_neighbors({ctx.vertex(), value.core});
    ctx.vote_to_halt();
  }

  void compute(bsp::VertexContext<Message>& ctx, Value& value,
               std::span<const Message> messages) {
    const auto nbrs = ctx.neighbors();
    bool lowered = false;
    for (const Message& m : messages) {
      const auto it = std::lower_bound(nbrs.begin(), nbrs.end(), m.node);
      KCORE_DCHECK(it != nbrs.end() && *it == m.node);
      const auto slot = static_cast<std::size_t>(it - nbrs.begin());
      if (m.estimate < value.est[slot]) {
        value.est[slot] = m.estimate;
        lowered = true;
      }
    }
    if (lowered) {
      thread_local IndexScratch index;  // one per worker thread
      const graph::NodeId t = index.compute_index(value.est, value.core);
      if (t < value.core) {
        value.core = t;
        for (std::size_t i = 0; i < nbrs.size(); ++i) {
          if (targeted_send && value.core >= value.est[i]) continue;
          ctx.send(nbrs[i], {ctx.vertex(), value.core});
        }
      }
    }
    ctx.vote_to_halt();
  }
};

/// Coreness plus the BSP framework statistics of one run of the port.
struct PregelKCoreResult {
  std::vector<graph::NodeId> coreness;
  bsp::BspStats stats;
};

/// Run the port with `num_workers` workers. The caller computed the
/// vertex→worker assignment once (core::assign_nodes; the paper's default
/// policy is modulo) and replays it across runs. `owner` is consumed by
/// the engine; pass a copy per run. The observer streams one
/// ProgressEvent per superstep (round = 1-based superstep, messages =
/// deliveries so far). `max_supersteps` caps the run (0 = the engine's
/// generous default); a capped run reports stats.converged == false.
[[nodiscard]] PregelKCoreResult run_pregel_kcore_prepared(
    const graph::Graph& g, std::vector<bsp::WorkerId> owner,
    bsp::WorkerId num_workers, bool targeted_send,
    const ProgressObserver& observer = {}, std::uint64_t max_supersteps = 0);

}  // namespace kcore::core
