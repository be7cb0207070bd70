// Stream study: incremental live repair vs full recompute under churn.
//
// The live service's reason to exist is that an edge flip perturbs only
// the K-subcore region around its endpoints, so repairing incrementally
// should cost a tiny fraction of what a from-scratch decomposition pays.
// This bench measures exactly that claim, in wall-clock time: for every
// Table 1 dataset profile we replay four churn traces —
//
//   insert-heavy  90% inserts / 10% removes, uniform endpoints
//   delete-heavy  10% inserts / 90% removes, uniform endpoints
//   mixed         50/50, uniform endpoints
//   hub           50/50, one endpoint biased into the top-degree decile
//                 (the adversarial case: hubs sit in the dense subcores)
//
// — in two batch regimes: `single` (one update per batch, the steady
// drip) and `small` (~0.5% of the edge set per batch, the bursty feed).
// After every batch we record Service::apply's wall time and the nodes
// the k-order raised, dropped and visited (it repairs every edge by
// itself; nothing relaxes), then run a full bsp-async decomposition of
// the same topology (threads=1, sched=bound) and record its wall time
// and relaxations. Every batch also
// cross-checks the service table against that from-scratch run, so the
// speedup numbers cannot drift away from correctness. The headline is
// the number of cells where apply is cheaper than the full recompute.
//
// Each cell then replays the IDENTICAL trace a second time through a
// durable service (WAL on real storage, fsync every batch — the most
// expensive policy) and reports the durability overhead: wall-clock
// apply time with the WAL versus without, plus the bytes logged. The
// scratch state directories live under stream_wal.tmp/ and are wiped
// per cell.
//
//   {"dataset", "trace", "batch_mode", "batches", "updates",
//    "full_relaxations", "raised_mean", "raised_max", "dropped_mean",
//    "dropped_max", "visited_mean", "full_ms", "apply_ms",
//    "durable_apply_ms", "wal_bytes", "durability_overhead"}
//
// into BENCH_stream.json (override with KCORE_BENCH_JSON). Honors
// KCORE_QUICK (fewer batches, scaled-down graphs) for CI smoke runs.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <numeric>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "api/api.h"
#include "bench_main.h"
#include "eval/experiments.h"
#include "graph/edge_list.h"
#include "graph/graph.h"
#include "live/service.h"
#include "util/check.h"
#include "util/env.h"
#include "util/json.h"
#include "util/rng.h"
#include "util/storage.h"
#include "util/table.h"

namespace {

using namespace kcore;
using graph::EdgeOp;
using graph::EdgeUpdate;
using graph::NodeId;

struct TraceKind {
  const char* name;
  double insert_fraction;
  bool hub_biased;
};

constexpr TraceKind kTraces[] = {
    {"insert-heavy", 0.9, false},
    {"delete-heavy", 0.1, false},
    {"mixed", 0.5, false},
    {"hub", 0.5, true},
};

struct Record {
  std::string dataset;
  std::string trace;
  std::string batch_mode;
  std::uint64_t nodes = 0;
  std::uint64_t edges = 0;
  std::uint64_t batches = 0;
  std::uint64_t updates = 0;
  std::uint64_t full_relaxations = 0;
  double raised_mean = 0.0;  // rising-set nodes raised by insertions
  std::uint64_t raised_max = 0;
  double dropped_mean = 0.0;  // levels the deletions lowered
  std::uint64_t dropped_max = 0;
  double visited_mean = 0.0;  // insertion + removal pass visits
  double full_ms = 0.0;
  double apply_ms = 0.0;          // wall-clock apply, WAL off
  double durable_apply_ms = 0.0;  // wall-clock apply, WAL on (fsync/batch)
  std::uint64_t wal_bytes = 0;
  double durability_overhead = 0.0;  // durable_apply_ms / apply_ms
};

double ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

std::string json_of(const std::vector<Record>& records) {
  std::ostringstream out;
  util::JsonWriter w(out, 2);
  w.begin_object();
  w.member("bench", "stream_study");
  w.member("hardware_threads",
           std::uint64_t{std::thread::hardware_concurrency()});
  w.key("records").begin_array();
  for (const Record& r : records) {
    w.begin_object();
    w.member("dataset", r.dataset);
    w.member("trace", r.trace);
    w.member("batch_mode", r.batch_mode);
    w.member("nodes", r.nodes);
    w.member("edges", r.edges);
    w.member("batches", r.batches);
    w.member("updates", r.updates);
    w.member("full_relaxations", r.full_relaxations);
    w.member("raised_mean", r.raised_mean, 2);
    w.member("raised_max", r.raised_max);
    w.member("dropped_mean", r.dropped_mean, 2);
    w.member("dropped_max", r.dropped_max);
    w.member("visited_mean", r.visited_mean, 2);
    w.member("full_ms", r.full_ms, 3);
    w.member("apply_ms", r.apply_ms, 3);
    w.member("durable_apply_ms", r.durable_apply_ms, 3);
    w.member("wal_bytes", r.wal_bytes);
    w.member("durability_overhead", r.durability_overhead, 2);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return out.str();
}

/// Mutable edge-set mirror of the service's topology, so trace generation
/// can draw real deletions (uniform over CURRENT edges, not random pairs
/// that mostly miss) and fresh insertions without trial applies.
class EdgeSampler {
 public:
  explicit EdgeSampler(const graph::Graph& g) : n_(g.num_nodes()) {
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
      for (const NodeId v : g.neighbors(u)) {
        if (u < v) {
          present_.insert(key(u, v));
          edges_.push_back({u, v});
        }
      }
    }
  }

  [[nodiscard]] bool empty() const { return edges_.empty(); }

  /// Draw (and track) a fresh non-edge; retries until it finds one.
  EdgeUpdate draw_insert(util::Xoshiro256& rng, const std::vector<NodeId>& hubs,
                         bool hub_biased) {
    for (int attempt = 0; attempt < 256; ++attempt) {
      NodeId u = hub_biased && !hubs.empty()
                     ? hubs[rng.next_below(hubs.size())]
                     : static_cast<NodeId>(rng.next_below(n_));
      NodeId v = static_cast<NodeId>(rng.next_below(n_));
      if (u == v) continue;
      if (u > v) std::swap(u, v);
      if (!present_.insert(key(u, v)).second) continue;
      edges_.push_back({u, v});
      return {EdgeOp::kInsert, u, v};
    }
    // Graph saturated under this bias — fall back to a removal.
    return draw_remove(rng);
  }

  /// Draw (and track) a uniformly random existing edge.
  EdgeUpdate draw_remove(util::Xoshiro256& rng) {
    const std::size_t i = rng.next_below(edges_.size());
    const auto [u, v] = edges_[i];
    edges_[i] = edges_.back();
    edges_.pop_back();
    present_.erase(key(u, v));
    return {EdgeOp::kRemove, u, v};
  }

 private:
  [[nodiscard]] static std::uint64_t key(NodeId u, NodeId v) {
    return (static_cast<std::uint64_t>(u) << 32) | v;
  }

  NodeId n_;
  std::unordered_set<std::uint64_t> present_;
  std::vector<std::pair<NodeId, NodeId>> edges_;
};

/// Top-decile nodes by initial degree — the hub pool for the `hub` trace.
std::vector<NodeId> hub_pool(const graph::Graph& g) {
  std::vector<NodeId> order(g.num_nodes());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](NodeId a, NodeId b) {
    return g.degree(a) > g.degree(b);
  });
  order.resize(std::max<std::size_t>(1, order.size() / 10));
  return order;
}

/// One cell: replay `num_batches` of `batch_size` updates through a live
/// service, comparing every batch against a from-scratch decomposition.
Record run_cell(const graph::Graph& g, const std::string& dataset,
                const TraceKind& trace, const char* batch_mode,
                std::size_t batch_size, int num_batches, std::uint64_t seed) {
  const live::ServiceOptions service_options;
  live::Service service(g, service_options);

  api::RunOptions full_options;
  full_options.threads = 1;
  full_options.sched = core::SchedPolicy::kBound;

  EdgeSampler sampler(g);
  const std::vector<NodeId> hubs =
      trace.hub_biased ? hub_pool(g) : std::vector<NodeId>{};
  util::Xoshiro256 rng(seed);

  Record r;
  r.dataset = dataset;
  r.trace = trace.name;
  r.batch_mode = batch_mode;
  r.nodes = g.num_nodes();
  r.edges = g.num_edges();
  std::vector<std::vector<EdgeUpdate>> replay_log;  // for the WAL-on leg
  replay_log.reserve(static_cast<std::size_t>(num_batches));
  for (int b = 0; b < num_batches; ++b) {
    std::vector<EdgeUpdate> batch;
    batch.reserve(batch_size);
    for (std::size_t i = 0; i < batch_size; ++i) {
      if (!sampler.empty() && !rng.next_bool(trace.insert_fraction)) {
        batch.push_back(sampler.draw_remove(rng));
      } else {
        batch.push_back(sampler.draw_insert(rng, hubs, trace.hub_biased));
      }
    }
    const auto apply_start = std::chrono::steady_clock::now();
    const live::ApplyResult applied = service.apply(batch);
    r.apply_ms += ms_since(apply_start);
    replay_log.push_back(batch);
    r.updates += batch.size();
    r.raised_mean += static_cast<double>(applied.repair.raised);
    r.raised_max = std::max(r.raised_max, applied.repair.raised);
    r.dropped_mean += static_cast<double>(applied.repair.dropped);
    r.dropped_max = std::max(r.dropped_max, applied.repair.dropped);
    r.visited_mean += static_cast<double>(applied.repair.region_visited +
                                          applied.repair.removal_visited);

    const api::DecomposeReport full = api::decompose(
        service.graph().snapshot(), api::kProtocolBspAsync, full_options);
    const auto& extras = std::get<api::AsyncExtras>(full.extras);
    r.full_relaxations += extras.relaxations;
    r.full_ms += full.elapsed_ms;
    KCORE_CHECK_MSG(service.query()->coreness == full.coreness,
                    dataset << "/" << trace.name << "/" << batch_mode
                            << ": batch " << b
                            << " diverged from the from-scratch decomposition");
  }
  r.batches = static_cast<std::uint64_t>(num_batches);
  if (num_batches > 0) {
    const auto batches = static_cast<double>(num_batches);
    r.raised_mean /= batches;
    r.dropped_mean /= batches;
    r.visited_mean /= batches;
  }

  // WAL-on leg: the identical trace through a durable service on real
  // storage with the most conservative policy (fsync every batch), so
  // the overhead column reports the true durability price. The repair
  // work is identical batch for batch; only the logging differs.
  {
    util::Storage& fs = util::real_storage();
    const std::string dir = std::string("stream_wal.tmp/") + dataset + "-" +
                            trace.name + "-" + batch_mode;
    if (fs.exists(dir)) {  // wipe a previous run's scratch state
      for (const std::string& name : fs.list_dir(dir)) {
        fs.remove_file(dir + "/" + name);
      }
    }
    live::DurabilityOptions durability;
    durability.dir = dir;
    durability.fsync = live::FsyncPolicy::kEveryBatch;
    live::Service durable(g, service_options, durability);
    for (const auto& batch : replay_log) {
      const auto start = std::chrono::steady_clock::now();
      const live::ApplyResult applied = durable.apply(batch);
      r.durable_apply_ms += ms_since(start);
      r.wal_bytes += applied.wal_bytes;
    }
    KCORE_CHECK_MSG(durable.query()->coreness == service.query()->coreness,
                    dataset << "/" << trace.name << "/" << batch_mode
                            << ": durable replay diverged");
  }
  r.durability_overhead =
      r.apply_ms > 0.0 ? r.durable_apply_ms / r.apply_ms : 0.0;
  return r;
}

}  // namespace

static int bench_main() {
  const auto options = eval::ExperimentOptions::from_env();
  std::cout << "== bench: stream study — incremental live repair vs full "
               "recompute under churn ==\n"
            << (options.quick ? "(quick mode)\n" : "") << "\n";

  const double scale = options.quick ? options.scale * 0.25 : options.scale;
  const int num_batches = options.quick ? 3 : 10;

  std::vector<Record> records;
  util::TableWriter table({"dataset", "trace", "mode", "updates",
                           "raised", "dropped", "visited", "apply ms",
                           "full ms", "full relax", "walKB", "dur ovh"});
  for (const auto& spec : eval::dataset_registry()) {
    const graph::Graph g =
        spec.build(scale, util::split_stream(options.base_seed, 0));
    const std::size_t small_batch =
        std::max<std::size_t>(1, g.num_edges() / 200);  // ~0.5% of edges
    for (const TraceKind& trace : kTraces) {
      const struct {
        const char* name;
        std::size_t size;
      } modes[] = {{"single", 1}, {"small", small_batch}};
      for (const auto& mode : modes) {
        const Record r =
            run_cell(g, spec.name, trace, mode.name, mode.size, num_batches,
                     util::split_stream(options.base_seed, 1));
        table.add_row({r.dataset, r.trace, r.batch_mode,
                       std::to_string(r.updates),
                       util::fmt_double(r.raised_mean, 1),
                       util::fmt_double(r.dropped_mean, 1),
                       util::fmt_double(r.visited_mean, 1),
                       util::fmt_double(r.apply_ms, 3),
                       util::fmt_double(r.full_ms, 3),
                       std::to_string(r.full_relaxations),
                       util::fmt_double(static_cast<double>(r.wal_bytes) /
                                            1024.0, 1),
                       util::fmt_double(r.durability_overhead, 2)});
        records.push_back(r);
      }
    }
  }
  table.print(std::cout);

  // The headline the README quotes: in how many cells is applying the
  // batches cheaper, in wall time, than recomputing from scratch?
  const auto cheaper = std::count_if(
      records.begin(), records.end(),
      [](const Record& r) { return r.apply_ms < r.full_ms; });
  std::cout << "\ncells where apply is cheaper than the full recompute: "
            << cheaper << " of " << records.size() << "\n";

  const std::string json_path =
      util::env_string("KCORE_BENCH_JSON").value_or("BENCH_stream.json");
  std::ofstream json_out(json_path);
  if (json_out.good()) {
    json_out << json_of(records);
    std::cout << "wrote " << json_path << " (" << records.size()
              << " records)\n";
  } else {
    std::cerr << "warning: cannot write " << json_path << "\n";
    return 1;
  }
  return 0;
}

int main() { return kcore::bench::run_main(bench_main); }
