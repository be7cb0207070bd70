#include "core/termination.h"

#include <cstddef>
#include <cstdint>
#include <vector>

#include "seq/kcore_seq.h"
#include "util/check.h"

namespace kcore::core {

ApproximateResult approximate_coreness(const graph::Graph& g,
                                       std::uint64_t rounds,
                                       const OneToOneConfig& config) {
  KCORE_CHECK_MSG(rounds >= 1, "need at least one round");
  OneToOneConfig capped = config;
  capped.max_rounds = rounds;
  const auto run = run_one_to_one_prepared(
      g, make_one_to_one_nodes(g, capped.targeted_send), capped);

  ApproximateResult result;
  result.estimates = run.coreness;
  const auto truth = seq::coreness_bz(g);
  double total_error = 0.0;
  std::size_t exact = 0;
  for (graph::NodeId u = 0; u < g.num_nodes(); ++u) {
    KCORE_CHECK_MSG(run.coreness[u] >= truth[u],
                    "safety violated at node " << u);
    const graph::NodeId err = run.coreness[u] - truth[u];
    total_error += static_cast<double>(err);
    if (err == 0) ++exact;
    if (err > result.max_error) result.max_error = err;
  }
  result.avg_error = total_error / static_cast<double>(g.num_nodes());
  result.fraction_exact =
      static_cast<double>(exact) / static_cast<double>(g.num_nodes());
  return result;
}

CentralizedTermination centralized_termination(
    std::uint64_t execution_time,
    const std::vector<std::uint64_t>& activity_transitions) {
  CentralizedTermination out;
  // The final traffic-bearing round is execution_time; the quiet reports
  // triggered by it reach the master in the following round.
  out.detection_round = execution_time + 1;
  for (const std::uint64_t t : activity_transitions) {
    out.control_messages += t;
  }
  return out;
}

}  // namespace kcore::core
