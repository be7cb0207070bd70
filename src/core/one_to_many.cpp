#include "core/one_to_many.h"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "util/check.h"

namespace kcore::core {

OneToManyHost::OneToManyHost(const graph::Graph* graph,
                             const std::vector<sim::HostId>* owner,
                             sim::HostId self, CommPolicy policy)
    : graph_(graph), policy_(policy) {
  KCORE_CHECK(owner->size() == graph->num_nodes());

  // Collect owned nodes (sorted, since node ids ascend).
  for (graph::NodeId u = 0; u < graph->num_nodes(); ++u) {
    if ((*owner)[u] == self) owned_.push_back(u);
  }

  // Local node universe: owned nodes plus their external neighbors.
  local_nodes_ = owned_;
  for (graph::NodeId u : owned_) {
    for (graph::NodeId v : graph->neighbors(u)) {
      local_nodes_.push_back(v);
    }
  }
  std::sort(local_nodes_.begin(), local_nodes_.end());
  local_nodes_.erase(std::unique(local_nodes_.begin(), local_nodes_.end()),
                     local_nodes_.end());

  owned_local_.resize(owned_.size());
  for (std::size_t o = 0; o < owned_.size(); ++o) {
    owned_local_[o] = static_cast<std::uint32_t>(local_index(owned_[o]));
  }

  // Owned adjacency in local indices (CSR over owned index).
  own_adj_offsets_.assign(owned_.size() + 1, 0);
  for (std::size_t o = 0; o < owned_.size(); ++o) {
    own_adj_offsets_[o + 1] =
        own_adj_offsets_[o] + graph->degree(owned_[o]);
  }
  own_adj_.resize(own_adj_offsets_.back());
  {
    std::size_t w = 0;
    for (graph::NodeId u : owned_) {
      for (graph::NodeId v : graph->neighbors(u)) {
        own_adj_[w++] = static_cast<std::uint32_t>(local_index(v));
      }
    }
  }

  // Reverse map: local node -> owned indices adjacent to it.
  rev_offsets_.assign(local_nodes_.size() + 1, 0);
  for (std::size_t o = 0; o < owned_.size(); ++o) {
    for (std::uint64_t i = own_adj_offsets_[o]; i < own_adj_offsets_[o + 1];
         ++i) {
      ++rev_offsets_[own_adj_[i] + 1];
    }
  }
  for (std::size_t l = 1; l < rev_offsets_.size(); ++l) {
    rev_offsets_[l] += rev_offsets_[l - 1];
  }
  rev_.resize(rev_offsets_.back());
  {
    std::vector<std::uint64_t> cursor(rev_offsets_.begin(),
                                      rev_offsets_.end() - 1);
    for (std::size_t o = 0; o < owned_.size(); ++o) {
      for (std::uint64_t i = own_adj_offsets_[o];
           i < own_adj_offsets_[o + 1]; ++i) {
        rev_[cursor[own_adj_[i]]++] = static_cast<std::uint32_t>(o);
      }
    }
  }

  // Neighbor hosts and, for point-to-point, per-owned destination sets.
  dest_offsets_.assign(owned_.size() + 1, 0);
  std::vector<std::vector<sim::HostId>> dests_per_owned(owned_.size());
  for (std::size_t o = 0; o < owned_.size(); ++o) {
    auto& dests = dests_per_owned[o];
    for (graph::NodeId v : graph->neighbors(owned_[o])) {
      const sim::HostId h = (*owner)[v];
      if (h != self) dests.push_back(h);
    }
    std::sort(dests.begin(), dests.end());
    dests.erase(std::unique(dests.begin(), dests.end()), dests.end());
    for (sim::HostId h : dests) neighbor_hosts_.push_back(h);
  }
  std::sort(neighbor_hosts_.begin(), neighbor_hosts_.end());
  neighbor_hosts_.erase(
      std::unique(neighbor_hosts_.begin(), neighbor_hosts_.end()),
      neighbor_hosts_.end());
  for (std::size_t o = 0; o < owned_.size(); ++o) {
    dest_offsets_[o + 1] = dest_offsets_[o] + dests_per_owned[o].size();
  }
  dest_.resize(dest_offsets_.back());
  {
    std::size_t w = 0;
    for (std::size_t o = 0; o < owned_.size(); ++o) {
      for (sim::HostId h : dests_per_owned[o]) {
        const auto it = std::lower_bound(neighbor_hosts_.begin(),
                                         neighbor_hosts_.end(), h);
        dest_[w++] =
            static_cast<std::uint32_t>(it - neighbor_hosts_.begin());
      }
    }
  }

  // Dynamic state: owned start at their degree, externals at +infinity;
  // every owned node is dirty (the paper ships the full initial S) and on
  // the worklist (the constructor runs the first improveEstimate).
  est_.assign(local_nodes_.size(), kEstimateInfinity);
  for (std::size_t o = 0; o < owned_.size(); ++o) {
    est_[owned_local_[o]] = graph->degree(owned_[o]);
  }
  changed_.assign(owned_.size(), true);
  in_worklist_.assign(owned_.size(), true);
  worklist_.resize(owned_.size());
  for (std::size_t o = 0; o < owned_.size(); ++o) {
    worklist_[o] = static_cast<std::uint32_t>(o);
  }
  improve_estimates();
}

std::size_t OneToManyHost::local_index(graph::NodeId global) const {
  const auto it =
      std::lower_bound(local_nodes_.begin(), local_nodes_.end(), global);
  if (it == local_nodes_.end() || *it != global) {
    return static_cast<std::size_t>(-1);
  }
  return static_cast<std::size_t>(it - local_nodes_.begin());
}

void OneToManyHost::wake_owned_neighbors(std::size_t l) {
  for (std::uint64_t i = rev_offsets_[l]; i < rev_offsets_[l + 1]; ++i) {
    const std::uint32_t o = rev_[i];
    if (!in_worklist_[o]) {
      in_worklist_[o] = true;
      worklist_.push_back(o);
    }
  }
}

void OneToManyHost::improve_estimates() {
  while (!worklist_.empty()) {
    const std::uint32_t o = worklist_.back();
    worklist_.pop_back();
    in_worklist_[o] = false;
    const std::uint32_t l = owned_local_[o];
    const graph::NodeId current = est_[l];
    if (current == 0) continue;
    gather_.clear();
    for (std::uint64_t i = own_adj_offsets_[o]; i < own_adj_offsets_[o + 1];
         ++i) {
      gather_.push_back(est_[own_adj_[i]]);
    }
    const graph::NodeId k = compute_index(gather_, current, scratch_);
    if (k < current) {
      est_[l] = k;
      changed_[o] = true;
      wake_owned_neighbors(l);
    }
  }
}

void OneToManyHost::on_message(sim::HostId /*from*/, const Message& m) {
  bool any = false;
  for (const NodeEstimate& upd : m) {
    const std::size_t l = local_index(upd.node);
    // Broadcast batches may mention nodes this host has no edge to; the
    // paper's est[] simply has no entry for them — skip.
    if (l == static_cast<std::size_t>(-1)) continue;
    if (upd.estimate < est_[l]) {
      est_[l] = upd.estimate;
      wake_owned_neighbors(l);
      any = true;
    }
  }
  if (any) improve_estimates();
}

void OneToManyHost::on_round(sim::Context<Message>& ctx) {
  if (neighbor_hosts_.empty()) {
    // Single host (or an isolated partition): nothing to ship, ever.
    std::fill(changed_.begin(), changed_.end(), false);
    return;
  }
  if (policy_ == CommPolicy::kBroadcast) {
    Message batch;
    for (std::size_t o = 0; o < owned_.size(); ++o) {
      if (!changed_[o]) continue;
      changed_[o] = false;
      batch.push_back({owned_[o], est_[owned_local_[o]]});
    }
    if (batch.empty()) return;
    // One physical broadcast: each estimate counts once (Figure 5, left).
    estimates_shipped_ += batch.size();
    last_send_round_ = ctx.round();
    for (sim::HostId h : neighbor_hosts_) {
      ctx.send(h, batch);
    }
    return;
  }
  // Point-to-point (Algorithm 5): per-destination relevant subsets.
  std::vector<Message> batches(neighbor_hosts_.size());
  for (std::size_t o = 0; o < owned_.size(); ++o) {
    if (!changed_[o]) continue;
    changed_[o] = false;
    const NodeEstimate upd{owned_[o], est_[owned_local_[o]]};
    for (std::uint64_t i = dest_offsets_[o]; i < dest_offsets_[o + 1]; ++i) {
      batches[dest_[i]].push_back(upd);
    }
  }
  bool sent = false;
  for (std::size_t j = 0; j < batches.size(); ++j) {
    if (batches[j].empty()) continue;
    estimates_shipped_ += batches[j].size();
    ctx.send(neighbor_hosts_[j], std::move(batches[j]));
    sent = true;
  }
  if (sent) last_send_round_ = ctx.round();
}

void OneToManyHost::snapshot_into(std::span<graph::NodeId> out) const {
  for (std::size_t o = 0; o < owned_.size(); ++o) {
    out[owned_[o]] = est_[owned_local_[o]];
  }
}

std::vector<OneToManyHost> make_one_to_many_hosts(
    const graph::Graph& g, const OneToManyConfig& config) {
  KCORE_CHECK_MSG(g.num_nodes() > 0, "graph must be non-empty");
  KCORE_CHECK_MSG(config.num_hosts >= 1, "need at least one host");
  // The hosts read the assignment only while they are being built.
  const auto owner = assign_nodes(g.num_nodes(), config.num_hosts,
                                  config.assignment, config.seed);
  std::vector<OneToManyHost> hosts;
  hosts.reserve(config.num_hosts);
  for (sim::HostId h = 0; h < config.num_hosts; ++h) {
    hosts.emplace_back(&g, &owner, h, config.comm);
  }
  return hosts;
}

OneToManyResult harvest_one_to_many_result(
    const std::vector<OneToManyHost>& hosts, graph::NodeId num_nodes) {
  OneToManyResult result;
  result.coreness.assign(num_nodes, 0);
  result.estimates_shipped_by_host.reserve(hosts.size());
  result.last_send_round_by_host.reserve(hosts.size());
  for (const auto& h : hosts) {
    h.snapshot_into(result.coreness);
    result.estimates_shipped_by_host.push_back(h.estimates_shipped());
    result.estimates_shipped_total += h.estimates_shipped();
    result.last_send_round_by_host.push_back(h.last_send_round());
  }
  result.overhead_per_node =
      static_cast<double>(result.estimates_shipped_total) /
      static_cast<double>(num_nodes);
  return result;
}

OneToManyResult run_one_to_many_prepared(const graph::Graph& g,
                                         std::vector<OneToManyHost> hosts,
                                         const OneToManyConfig& config,
                                         const ProgressObserver& observer) {
  KCORE_CHECK_MSG(!hosts.empty(), "need at least one prepared host");

  // Base-class slice of the shared options, with the engine seed
  // decorrelated from the assignment seed and the automatic round cap.
  sim::EngineConfig engine_config = config;
  engine_config.seed = config.seed ^ 0x9e3779b97f4a7c15ULL;
  if (engine_config.max_rounds == 0) {
    engine_config.max_rounds =
        static_cast<std::uint64_t>(g.num_nodes()) * 2 + 64;
  }

  sim::Engine<OneToManyHost> engine(std::move(hosts), engine_config);

  std::vector<graph::NodeId> snapshot(g.num_nodes(), 0);
  auto engine_observer = [&](std::uint64_t round,
                             const std::vector<OneToManyHost>& hs) {
    if (!observer) return;
    for (const auto& h : hs) h.snapshot_into(snapshot);
    observer(ProgressEvent{round, snapshot,
                           engine.stats().total_messages});
  };

  const auto traffic = engine.run(engine_observer);
  OneToManyResult result =
      harvest_one_to_many_result(engine.hosts(), g.num_nodes());
  result.traffic = traffic;
  return result;
}

}  // namespace kcore::core
