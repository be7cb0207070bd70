// perfbench_gen — writes one workload's inputs from a seed.
//
//   perfbench_gen --workload churn-drip --seed 1 --out DIR [--graph-seed N]
//                 [--traces K]
//
// DIR/graph-<i>.txt  the workload's graphs as edge lists (eval profile,
//                   scaled); churn workloads have one, the base graph
// DIR/nodes.txt      the reader's fixed node set, one dense id per line,
//                   valid in every graph
// DIR/trace-<k>.txt  churn workloads, k < K: independent "t op u v" update
//                   traces over the base graph, t = batch index
//
// The graphs come from the workload's graph seed (or --graph-seed); the
// seed orders them and drives the trace and the reader's nodes. The trace
// is generated against the graph as graph::read_edge_list_file loads it
// back (dense ids), so every insert names an absent edge and every remove
// a present one at the point it is applied. The same seeds give
// byte-identical files.
#include <algorithm>
#include <cstdint>
#include <exception>
#include <fstream>
#include <iostream>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "eval/datasets.h"
#include "graph/edge_list.h"
#include "util/rng.h"
#include "workloads.h"

namespace {

using kcore::graph::EdgeOp;
using kcore::graph::EdgeUpdate;
using kcore::graph::NodeId;

// The current edge set with O(1) uniform sampling and removal.
class EdgeSet {
 public:
  explicit EdgeSet(const kcore::graph::Graph& g) {
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
      for (const NodeId v : g.neighbors(u)) {
        if (u < v) add(u, v);
      }
    }
  }
  [[nodiscard]] bool contains(NodeId u, NodeId v) const {
    return index_.contains(key(u, v));
  }
  void add(NodeId u, NodeId v) {
    index_.emplace(key(u, v), edges_.size());
    edges_.emplace_back(std::min(u, v), std::max(u, v));
  }
  void remove(NodeId u, NodeId v) {
    const auto it = index_.find(key(u, v));
    const std::size_t slot = it->second;
    index_.erase(it);
    if (slot + 1 != edges_.size()) {
      edges_[slot] = edges_.back();
      index_[key(edges_[slot].first, edges_[slot].second)] = slot;
    }
    edges_.pop_back();
  }
  [[nodiscard]] std::size_t size() const { return edges_.size(); }
  [[nodiscard]] kcore::graph::Graph graph(NodeId n) const {
    std::vector<kcore::graph::Edge> edges;
    edges.reserve(edges_.size());
    for (const auto& [u, v] : edges_) edges.push_back({u, v});
    return kcore::graph::Graph::from_edges(n, edges);
  }
  [[nodiscard]] std::pair<NodeId, NodeId> at(std::size_t i) const {
    return edges_[i];
  }

 private:
  static std::uint64_t key(NodeId u, NodeId v) {
    if (u > v) std::swap(u, v);
    return (static_cast<std::uint64_t>(u) << 32) | v;
  }
  std::vector<std::pair<NodeId, NodeId>> edges_;
  std::unordered_map<std::uint64_t, std::size_t> index_;
};

using Pool = std::vector<std::pair<NodeId, NodeId>>;

std::pair<NodeId, NodeId> take(Pool& pool, kcore::util::Xoshiro256& rng) {
  const std::size_t j = rng.next_below(pool.size());
  const auto e = pool[j];
  pool[j] = pool.back();
  pool.pop_back();
  return e;
}

// Removes one present edge: with probability same_batch_remove an insert
// of this batch (net-effect coalescing), else a uniform present edge.
std::pair<NodeId, NodeId> remove_one(EdgeSet& edges, Pool& inserted,
                                     const perfbench::Workload& w,
                                     kcore::util::Xoshiro256& rng) {
  std::pair<NodeId, NodeId> e;
  if (!inserted.empty() && rng.next_bool(w.same_batch_remove)) {
    e = take(inserted, rng);
  } else {
    e = edges.at(rng.next_below(edges.size()));
    std::erase_if(inserted, [&](const auto& x) {
      return std::minmax(x.first, x.second) == std::minmax(e.first, e.second);
    });
  }
  edges.remove(e.first, e.second);
  return e;
}

// A trace whose updates are independent draws: each insert names an
// absent edge with uniform endpoints, each remove a uniform present edge
// (or, with probability same_batch_remove, an insert of the same batch).
kcore::graph::EdgeStream uniform_trace(const perfbench::Workload& w,
                                       const kcore::graph::Graph& g,
                                       kcore::util::Xoshiro256& rng) {
  EdgeSet edges(g);
  const NodeId n = g.num_nodes();
  kcore::graph::EdgeStream stream;
  stream.events.reserve(w.trace_batches * w.batch_size);
  for (std::uint64_t b = 0; b < w.trace_batches; ++b) {
    Pool inserted;  // this batch's inserts, still present
    for (unsigned i = 0; i < w.batch_size; ++i) {
      if (rng.next_bool(w.insert_share) || edges.size() == 0) {
        NodeId u = 0;
        NodeId v = 0;
        do {
          u = static_cast<NodeId>(rng.next_below(n));
          v = static_cast<NodeId>(rng.next_below(n));
        } while (u == v || edges.contains(u, v));
        edges.add(u, v);
        inserted.emplace_back(u, v);
        stream.events.push_back({b, EdgeUpdate{EdgeOp::kInsert, u, v}});
        continue;
      }
      const auto e = remove_one(edges, inserted, w, rng);
      stream.events.push_back({b, EdgeUpdate{EdgeOp::kRemove, e.first, e.second}});
    }
  }
  return stream;
}

// A trace of excursions: every batch re-adds the edges the batch before
// it removed (the first batch: the held-out edges) and removes as many
// again, in a random order. The graph never strays more than a batch
// from the base, so the cost per batch is stationary over a run.
kcore::graph::EdgeStream excursion_trace(const perfbench::Workload& w,
                                         const kcore::graph::Graph& g,
                                         Pool pending,
                                         kcore::util::Xoshiro256& rng) {
  EdgeSet edges(g);
  kcore::graph::EdgeStream stream;
  stream.events.reserve(w.trace_batches * w.batch_size);
  for (std::uint64_t b = 0; b < w.trace_batches; ++b) {
    std::vector<std::uint8_t> is_insert(w.batch_size, 0);
    std::fill_n(is_insert.begin(),
                std::min<std::size_t>(pending.size(), w.batch_size), 1);
    for (std::size_t i = is_insert.size(); i > 1; --i) {
      std::swap(is_insert[i - 1], is_insert[rng.next_below(i)]);
    }
    Pool inserted;  // this batch's inserts, still present
    Pool removed;   // re-added by the next batch
    for (const std::uint8_t insert : is_insert) {
      if (insert != 0 && !pending.empty()) {
        const auto [u, v] = take(pending, rng);
        edges.add(u, v);
        inserted.emplace_back(u, v);
        stream.events.push_back({b, EdgeUpdate{EdgeOp::kInsert, u, v}});
        continue;
      }
      const auto e = remove_one(edges, inserted, w, rng);
      removed.push_back(e);
      stream.events.push_back({b, EdgeUpdate{EdgeOp::kRemove, e.first, e.second}});
    }
    pending = std::move(removed);
  }
  return stream;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::string out;
  std::uint64_t seed = 0;
  std::uint64_t graph_seed = 0;  // 0: perfbench::kGraphSeed
  unsigned traces = 1;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::stoull(value);
      have_seed = true;
    } else if (flag == "--graph-seed") {
      graph_seed = std::stoull(value);
    } else if (flag == "--traces") {
      traces = static_cast<unsigned>(std::stoul(value));
    } else if (flag == "--out") {
      out = value;
    } else {
      std::cerr << "perfbench_gen: unknown flag " << flag << "\n";
      return 2;
    }
  }
  if (workload.empty() || out.empty() || !have_seed) {
    std::cerr << "usage: perfbench_gen --workload NAME --seed N --out DIR "
                 "[--graph-seed N] [--traces K]\n";
    return 2;
  }
  try {
    const perfbench::Workload& w = perfbench::workload_by_name(workload);
    const kcore::eval::DatasetSpec& spec =
        kcore::eval::dataset_by_name(w.profile);
    kcore::util::Xoshiro256 rng(seed ^ 0x7065726662656e63ULL);

    // The graphs: built from the graph seed, placed in an order drawn
    // from the run's seed.
    kcore::util::SplitMix64 graph_seeds(graph_seed != 0 ? graph_seed
                                                        : perfbench::kGraphSeed);
    std::vector<std::uint64_t> seeds(w.graphs);
    for (auto& s : seeds) s = graph_seeds.next();
    for (std::size_t i = seeds.size(); i > 1; --i) {
      std::swap(seeds[i - 1], seeds[rng.next_below(i)]);
    }
    std::vector<kcore::graph::Graph> graphs;
    Pool absent;
    NodeId min_nodes = 0;
    for (unsigned i = 0; i < w.graphs; ++i) {
      kcore::graph::Graph g = spec.build(w.scale, seeds[i]);
      if (w.held_out > 0) {
        EdgeSet set(g);
        for (unsigned k = 0; k < w.held_out && set.size() > 0; ++k) {
          const auto e = set.at(rng.next_below(set.size()));
          set.remove(e.first, e.second);
          absent.push_back(e);
        }
        g = set.graph(g.num_nodes());
      }
      const std::string path = out + "/graph-" + std::to_string(i) + ".txt";
      kcore::graph::write_edge_list_file(path, g);
      kcore::graph::LoadedGraph loaded = kcore::graph::read_edge_list_file(path);
      if (!absent.empty()) {
        // Into the loaded graph's dense ids; a held-out edge whose
        // endpoint lost every other edge has no id there and is dropped.
        std::unordered_map<std::uint64_t, NodeId> dense;
        for (std::size_t d = 0; d < loaded.original_ids.size(); ++d) {
          dense.emplace(loaded.original_ids[d], static_cast<NodeId>(d));
        }
        Pool mapped;
        for (const auto& [u, v] : absent) {
          const auto a = dense.find(u);
          const auto b = dense.find(v);
          if (a != dense.end() && b != dense.end()) {
            mapped.emplace_back(a->second, b->second);
          }
        }
        absent = std::move(mapped);
      }
      graphs.push_back(std::move(loaded.graph));
      const NodeId n = graphs.back().num_nodes();
      min_nodes = i == 0 ? n : std::min(min_nodes, n);
    }

    {
      std::ofstream nodes(out + "/nodes.txt");
      for (unsigned i = 0; i < perfbench::kReaderNodes; ++i) {
        nodes << rng.next_below(min_nodes) << '\n';
      }
      if (!nodes.good()) throw std::runtime_error("cannot write nodes.txt");
    }
    for (unsigned k = 0; w.kind == perfbench::Kind::kChurn && k < traces; ++k) {
      kcore::graph::write_edge_stream_file(
          out + "/trace-" + std::to_string(k) + ".txt",
          w.held_out > 0 ? excursion_trace(w, graphs[0], absent, rng)
                         : uniform_trace(w, graphs[0], rng));
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench_gen: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
