// Stream study: incremental live repair vs full recompute under churn.
//
// The live service's reason to exist is that an edge flip perturbs only
// the K-subcore region around its endpoints, so repairing incrementally
// should relax a tiny fraction of what a from-scratch decomposition pays.
// This bench measures exactly that claim: for every Table 1 dataset
// profile we replay four churn traces —
//
//   insert-heavy  90% inserts / 10% removes, uniform endpoints
//   delete-heavy  10% inserts / 90% removes, uniform endpoints
//   mixed         50/50, uniform endpoints
//   hub           50/50, one endpoint biased into the top-degree decile
//                 (the adversarial case: hubs sit in the dense subcores)
//
// — in two batch regimes: `single` (one update per batch, the steady
// drip) and `small` (~0.5% of the edge set per batch, the bursty feed).
// After every batch we record the incremental repair's relaxation count
// and candidate-region size, then run a full bsp-async decomposition of
// the same topology (threads=1, sched=bound on both sides, so the two
// relaxation counts are directly comparable) and record its cost. Every
// batch also cross-checks the service table against that from-scratch
// run, so the speedup numbers cannot drift away from correctness.
//
// Each cell then replays the IDENTICAL trace a second time through a
// durable service (WAL on real storage, fsync every batch — the most
// expensive policy) and reports the durability overhead: wall-clock
// apply time with the WAL versus without, plus the bytes logged. The
// scratch state directories live under stream_wal.tmp/ and are wiped
// per cell.
//
//   {"dataset", "trace", "batch_mode", "batches", "updates",
//    "incremental_relaxations", "full_relaxations", "relaxation_ratio",
//    "seeded_mean", "seeded_max", "raised_mean", "raised_max",
//    "incremental_ms", "full_ms", "apply_ms", "durable_apply_ms",
//    "wal_bytes", "durability_overhead"}
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
  std::uint64_t incremental_relaxations = 0;
  std::uint64_t full_relaxations = 0;
  double relaxation_ratio = 0.0;  // full / incremental (higher = better)
  double seeded_mean = 0.0;       // rising sets incl. endpoints
  std::uint64_t seeded_max = 0;
  double raised_mean = 0.0;  // rising-set nodes raised by insertions
  std::uint64_t raised_max = 0;
  double incremental_ms = 0.0;
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
    w.member("incremental_relaxations", r.incremental_relaxations);
    w.member("full_relaxations", r.full_relaxations);
    w.member("relaxation_ratio", r.relaxation_ratio, 2);
    w.member("seeded_mean", r.seeded_mean, 2);
    w.member("seeded_max", r.seeded_max);
    w.member("raised_mean", r.raised_mean, 2);
    w.member("raised_max", r.raised_max);
    w.member("incremental_ms", r.incremental_ms, 3);
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
  live::ServiceOptions service_options;
  service_options.threads = 1;
  service_options.sched = core::SchedPolicy::kBound;
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
  std::vector<std::uint64_t> seeded;
  std::vector<std::uint64_t> raised;
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
    r.incremental_relaxations += applied.repair.relaxations;
    r.incremental_ms += applied.repair.repair_ms;
    seeded.push_back(applied.repair.seeded);
    raised.push_back(applied.repair.raised);

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
  for (const std::uint64_t s : seeded) {
    r.seeded_mean += static_cast<double>(s);
    r.seeded_max = std::max(r.seeded_max, s);
  }
  for (const std::uint64_t s : raised) {
    r.raised_mean += static_cast<double>(s);
    r.raised_max = std::max(r.raised_max, s);
  }
  if (!seeded.empty()) {
    r.seeded_mean /= static_cast<double>(seeded.size());
    r.raised_mean /= static_cast<double>(raised.size());
  }
  r.relaxation_ratio =
      r.incremental_relaxations > 0
          ? static_cast<double>(r.full_relaxations) /
                static_cast<double>(r.incremental_relaxations)
          : 0.0;

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
  util::TableWriter table({"dataset", "trace", "mode", "updates", "inc relax",
                           "full relax", "ratio", "seed mean", "seed max",
                           "walKB", "dur ovh"});
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
                       std::to_string(r.incremental_relaxations),
                       std::to_string(r.full_relaxations),
                       util::fmt_double(r.relaxation_ratio, 1),
                       util::fmt_double(r.seeded_mean, 1),
                       std::to_string(r.seeded_max),
                       util::fmt_double(static_cast<double>(r.wal_bytes) /
                                            1024.0, 1),
                       util::fmt_double(r.durability_overhead, 2)});
        records.push_back(r);
      }
    }
  }
  table.print(std::cout);

  // The headline the README quotes: on how many profiles does incremental
  // repair beat the full recompute by >= 5x in BOTH batch regimes?
  std::size_t profiles_at_5x = 0;
  for (const auto& spec : eval::dataset_registry()) {
    bool all = true;
    for (const Record& r : records) {
      if (r.dataset == spec.name && r.relaxation_ratio < 5.0) all = false;
    }
    if (all) ++profiles_at_5x;
  }
  std::cout << "\nprofiles with >= 5x relaxation reduction in every cell: "
            << profiles_at_5x << " of "
            << eval::dataset_registry().size() << "\n";

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
