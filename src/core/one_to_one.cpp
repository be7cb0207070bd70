#include "core/one_to_one.h"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/check.h"

namespace kcore::core {

std::size_t OneToOneNode::slot_of(graph::NodeId v) const {
  const auto nbrs = graph_->neighbors(self_);
  const auto it = std::lower_bound(nbrs.begin(), nbrs.end(), v);
  KCORE_DCHECK(it != nbrs.end() && *it == v);
  return static_cast<std::size_t>(it - nbrs.begin());
}

void OneToOneNode::on_message(sim::HostId /*from*/, const Message& m) {
  const std::size_t slot = slot_of(m.node);
  if (m.estimate < est_[slot]) {
    est_[slot] = m.estimate;
    recompute_ = true;
  }
}

void OneToOneNode::on_round(sim::Context<Message>& ctx) {
  if (recompute_) {
    recompute_ = false;
    // One scratch per executing thread, not per node: IndexScratch's
    // 64-slot floor would cost every node 512 B.
    thread_local IndexScratch index;
    const graph::NodeId t = index.compute_index(est_, core_);
    if (t < core_) {
      core_ = t;
      changed_ = true;
    }
  }
  bool sent = false;
  if (changed_) {
    changed_ = false;
    const auto nbrs = graph_->neighbors(self_);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      // §3.1.2: skip neighbors whose (locally known) estimate is already at
      // or below ours — our update cannot affect their computeIndex.
      if (targeted_send_ && core_ >= est_[i]) continue;
      ctx.send(nbrs[i], Message{self_, core_});
      sent = true;
    }
    if (sent) last_send_round_ = ctx.round();
  }
  if (sent != prev_active_) {
    ++transitions_;
    prev_active_ = sent;
  }
}

std::vector<OneToOneNode> make_one_to_one_nodes(const graph::Graph& g,
                                                bool targeted_send) {
  KCORE_CHECK_MSG(g.num_nodes() > 0, "graph must be non-empty");
  std::vector<OneToOneNode> nodes;
  nodes.reserve(g.num_nodes());
  for (graph::NodeId u = 0; u < g.num_nodes(); ++u) {
    nodes.emplace_back(&g, u, targeted_send);
  }
  return nodes;
}

OneToOneResult run_one_to_one_prepared(const graph::Graph& g,
                                       std::vector<OneToOneNode> nodes,
                                       const OneToOneConfig& config,
                                       const ProgressObserver& observer) {
  KCORE_CHECK_MSG(nodes.size() == g.num_nodes(),
                  "prepared nodes must cover every graph node");

  // The engine reads exactly the base-class slice of the options; only
  // the automatic round cap is protocol-specific. Theorem 5: execution
  // time <= N rounds; leave slack for fault-injected runs where
  // duplicated/delayed traffic stretches the schedule.
  sim::EngineConfig engine_config = config;
  if (engine_config.max_rounds == 0) {
    engine_config.max_rounds =
        static_cast<std::uint64_t>(g.num_nodes()) * 2 + 64;
  }

  sim::Engine<OneToOneNode> engine(std::move(nodes), engine_config);

  OneToOneResult result;
  std::vector<graph::NodeId> snapshot;
  auto engine_observer = [&](std::uint64_t round,
                             const std::vector<OneToOneNode>& hosts) {
    if (!observer) return;
    snapshot.resize(hosts.size());
    for (std::size_t u = 0; u < hosts.size(); ++u) {
      snapshot[u] = hosts[u].core();
    }
    observer(ProgressEvent{round, snapshot,
                           engine.stats().total_messages});
  };
  result.traffic = engine.run(engine_observer);

  result.coreness.resize(g.num_nodes());
  result.last_send_round.resize(g.num_nodes());
  result.activity_transitions.resize(g.num_nodes());
  for (graph::NodeId u = 0; u < g.num_nodes(); ++u) {
    result.coreness[u] = engine.hosts()[u].core();
    result.last_send_round[u] = engine.hosts()[u].last_send_round();
    result.activity_transitions[u] = engine.hosts()[u].activity_transitions();
  }
  return result;
}

}  // namespace kcore::core
