// Epidemic (gossip) aggregation — the paper's reference [6] substrate.
//
// §3.3 proposes detecting termination with "epidemic protocols for
// aggregation [that] enable the decentralized computation of global
// properties in O(log |H|) rounds". The detector needs only the maximum:
//
//  * MaxGossipHost — push gossip with stale-reply: every round each host
//    pushes its current maximum to one uniformly random overlay neighbor;
//    a receiver holding a larger value pushes back. Converges to the
//    global maximum in O(log H) rounds on well-connected overlays. Hosts
//    go quiet after `quiet_window` rounds without change, so the engine's
//    quiescence detection terminates the run.
//
// It plugs into sim::Engine like the k-core protocols.
#pragma once

#include <cstdint>
#include <utility>

#include "graph/graph.h"
#include "sim/engine.h"
#include "util/rng.h"

namespace kcore::agg {

/// Push(-back) gossip maximum aggregation over an overlay graph.
class MaxGossipHost {
 public:
  using Message = std::uint64_t;

  MaxGossipHost(const graph::Graph* overlay, sim::HostId self,
                std::uint64_t initial_value, std::uint32_t quiet_window,
                std::uint64_t seed)
      : overlay_(overlay),
        self_(self),
        value_(initial_value),
        quiet_window_(quiet_window),
        rng_(util::SplitMix64(seed ^ (0x9e3779b97f4a7c15ULL * (self + 1)))
                 .next()) {
    KCORE_CHECK_MSG(quiet_window_ >= 1, "quiet window must be >= 1");
  }

  void on_message(sim::HostId from, const Message& m) {
    if (m > value_) {
      value_ = m;
      rounds_since_change_ = 0;
    } else if (m < value_) {
      // Stale sender: schedule a corrective push back (pull half).
      reply_to_ = from;
    }
  }

  void on_round(sim::Context<Message>& ctx) {
    const auto nbrs = overlay_->neighbors(self_);
    if (nbrs.empty()) return;
    if (reply_to_ != sim::HostId(-1)) {
      ctx.send(reply_to_, value_);
      reply_to_ = sim::HostId(-1);
    }
    if (rounds_since_change_ < quiet_window_) {
      const auto peer = nbrs[rng_.next_below(nbrs.size())];
      ctx.send(peer, value_);
      ++rounds_since_change_;
    }
  }

  [[nodiscard]] std::uint64_t value() const noexcept { return value_; }
  [[nodiscard]] bool quiet() const noexcept {
    return rounds_since_change_ >= quiet_window_;
  }

 private:
  const graph::Graph* overlay_;
  sim::HostId self_;
  std::uint64_t value_;
  std::uint32_t quiet_window_;
  std::uint32_t rounds_since_change_ = 0;
  sim::HostId reply_to_ = sim::HostId(-1);
  util::Xoshiro256 rng_;
};

}  // namespace kcore::agg
