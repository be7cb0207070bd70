// Kernel microbench for the hot-path pass of the async runtime:
//
//  1. compute_index, legacy vector-scratch (O(k) counts.assign + suffix
//     sum + scan: three sweeps per call) vs the epoch-stamped
//     IndexScratch (lazy slot validation + one early-exit downward walk).
//     Measured on high-degree inputs across estimate shapes; the two
//     kernels are asserted bit-identical on every input.
//
//  2. Neighbor-estimate gather: copy-into-buffer + legacy kernel (what
//     the relaxation loops used to do) vs the allocation-free streaming
//     read straight from a shared atomic table.
//
//  3. Heap allocations of a warm run_bsp_async_prepared call, counted by
//     a global operator new/delete override: after one warm-up run the
//     context's table, queue, histogram arena and scratch are all reused
//     in place, so the run must allocate NOTHING. The exit code gates on
//     it.
//
//  4. Attribution of a warm one-worker run_bsp_async_prepared on a fixed
//     hub-heavy graph (berkstan-like at scale 0.5, the perfbench
//     static-decompose shape): ns per relaxation and neighbor estimates
//     read per relaxation, the two numbers the one-worker kernel's cost
//     is tracked by.
//
// Emits BENCH_kernel.json (override with KCORE_KERNEL_JSON); honors
// KCORE_QUICK for CI smoke runs.
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <new>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "core/compute_index.h"
#include "eval/datasets.h"
#include "graph/edge_list.h"
#include "graph/generators.h"
#include "par/async_engine.h"
#include "util/check.h"
#include "util/clock.h"
#include "util/env.h"
#include "util/json.h"
#include "util/table.h"

// --- global allocation counter ---------------------------------------------
// Counts every non-overaligned heap allocation in the process (the hot
// structures the loop could touch — deque rings, scratch vectors, gather
// buffers — are all normally aligned). Over-aligned types (the
// cache-line-padded lanes) only allocate at construction time, outside
// the measured windows.

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace kcore;
using graph::NodeId;
using Clock = util::SteadyClock;

constexpr const char* kWarmRunRow = "warm run_bsp_async_prepared";
constexpr const char* kAttributionInput =
    "warm one-worker run_bsp_async_prepared, berkstan-like@0.5 seed 1";

struct Record {
  std::string section;
  std::string input;
  double legacy = 0.0;  // ns/call or ms/pass or alloc count
  double epoch = 0.0;
  std::string unit;
};

std::string json_of(const std::vector<Record>& records) {
  std::ostringstream out;
  util::JsonWriter w(out, 2);
  w.begin_object();
  w.member("bench", "kernel_bench");
  w.key("records").begin_array();
  for (const Record& r : records) {
    const double speedup = r.epoch > 0.0 ? r.legacy / r.epoch : 0.0;
    w.begin_object();
    w.member("section", r.section);
    w.member("input", r.input);
    w.member("legacy", r.legacy, 3);
    w.member("epoch_stamped", r.epoch, 3);
    w.member("unit", r.unit);
    w.member("speedup", speedup, 3);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return out.str();
}

/// Best-of-3 timing of `fn()` repeated `reps` times; returns ns per call.
template <typename Fn>
double time_ns_per_call(std::uint64_t reps, Fn&& fn) {
  double best_ms = 0.0;
  for (int attempt = 0; attempt < 3; ++attempt) {
    const auto start = Clock::now();
    for (std::uint64_t i = 0; i < reps; ++i) fn();
    const double ms = util::ms_between(start, Clock::now());
    if (attempt == 0 || ms < best_ms) best_ms = ms;
  }
  return best_ms * 1e6 / static_cast<double>(reps);
}

// --- part 1: compute_index kernels ------------------------------------------

std::vector<NodeId> estimates_of_shape(const std::string& shape, NodeId deg,
                                       NodeId k, std::uint64_t seed) {
  std::vector<NodeId> estimates(deg);
  std::mt19937_64 rng(seed);
  for (NodeId i = 0; i < deg; ++i) {
    if (shape == "converged") {
      // Fixed point: every neighbor at or above k — the steady-state
      // input once the run has settled.
      estimates[i] = k + static_cast<NodeId>(rng() % 5);
    } else if (shape == "mixed") {
      estimates[i] = 1 + static_cast<NodeId>(rng() % k);
    } else {  // "collapsed": hub over leaves, answer near 1
      estimates[i] = 1 + static_cast<NodeId>(rng() % 3);
    }
  }
  return estimates;
}

void bench_compute_index(bool quick, std::vector<Record>& records,
                         util::TableWriter& table) {
  std::vector<NodeId> degrees{1024, 16384, 131072};
  if (quick) degrees = {1024, 16384};
  for (const NodeId deg : degrees) {
    for (const char* shape : {"converged", "mixed", "collapsed"}) {
      const NodeId k = deg;  // hub: own estimate == degree
      const auto estimates = estimates_of_shape(shape, deg, k, 7 + deg);
      std::vector<NodeId> legacy_scratch;
      core::IndexScratch epoch_scratch;
      const NodeId expected =
          core::compute_index(estimates, k, legacy_scratch);
      KCORE_CHECK_MSG(epoch_scratch.compute_index(estimates, k) == expected,
                      "kernel mismatch on " << shape << " deg=" << deg);

      const std::uint64_t reps = std::max<std::uint64_t>(
          4, (quick ? 2'000'000ULL : 20'000'000ULL) / deg);
      volatile NodeId sink = 0;
      const double legacy_ns = time_ns_per_call(reps, [&] {
        sink = core::compute_index(estimates, k, legacy_scratch);
      });
      const double epoch_ns = time_ns_per_call(reps, [&] {
        sink = epoch_scratch.compute_index(estimates, k);
      });
      (void)sink;
      const std::string input = "deg=" + std::to_string(deg) +
                                " shape=" + shape;
      records.push_back({"compute_index", input, legacy_ns, epoch_ns,
                         "ns/call"});
      table.add_row({"compute_index", input,
                     util::fmt_double(legacy_ns, 1),
                     util::fmt_double(epoch_ns, 1),
                     util::fmt_double(legacy_ns / epoch_ns, 2)});
    }
  }
}

// --- part 2: gather vs stream -----------------------------------------------

void bench_gather(bool quick, std::vector<Record>& records,
                  util::TableWriter& table) {
  const NodeId n = quick ? 20000 : 100000;
  const graph::Graph g = graph::gen::barabasi_albert(n, 4, 99);
  std::vector<std::atomic<NodeId>> est(n);
  for (NodeId u = 0; u < n; ++u) {
    est[u].store(g.degree(u), std::memory_order_relaxed);
  }

  std::vector<NodeId> gather;
  std::vector<NodeId> legacy_scratch;
  core::IndexScratch epoch_scratch;
  volatile NodeId sink = 0;

  auto gather_pass = [&] {
    for (NodeId u = 0; u < n; ++u) {
      const NodeId k = est[u].load(std::memory_order_acquire);
      if (k == 0) continue;
      gather.clear();
      for (const NodeId v : g.neighbors(u)) {
        gather.push_back(est[v].load(std::memory_order_acquire));
      }
      sink = core::compute_index(gather, k, legacy_scratch);
    }
  };
  auto stream_pass = [&] {
    for (NodeId u = 0; u < n; ++u) {
      const NodeId k = est[u].load(std::memory_order_acquire);
      if (k == 0) continue;
      const auto nbrs = g.neighbors(u);
      sink = epoch_scratch.compute_index_stream(
          nbrs.size(), k, [&](std::size_t i) {
            return est[nbrs[i]].load(std::memory_order_acquire);
          });
    }
  };
  (void)sink;

  const std::uint64_t reps = quick ? 5 : 10;
  const double gather_ms = time_ns_per_call(reps, gather_pass) / 1e6;
  const double stream_ms = time_ns_per_call(reps, stream_pass) / 1e6;
  const std::string input =
      "ba n=" + std::to_string(n) + " full relaxation pass";
  records.push_back({"gather", input, gather_ms, stream_ms, "ms/pass"});
  table.add_row({"gather-vs-stream", input, util::fmt_double(gather_ms, 2),
                 util::fmt_double(stream_ms, 2),
                 util::fmt_double(gather_ms / stream_ms, 2)});
}

// --- part 3: allocations in a warm run -------------------------------------

/// Heap allocations of one warm run_bsp_async_prepared call. The warm-up
/// run grows every ring and scratch to steady state; the measured run
/// reuses the context in place and must allocate nothing (main() gates
/// on it). The coreness stays in the context, so no result vector is
/// built either.
void bench_allocations(bool quick, std::vector<Record>& records,
                       util::TableWriter& table) {
  const NodeId n = quick ? 20000 : 50000;
  const graph::Graph g = graph::gen::barabasi_albert(n, 3, 5);
  core::RunOptions options;
  options.threads = 1;
  const auto prepared = par::prepare_bsp_async(g, options);
  par::AsyncRunContext context(prepared, g.num_nodes());
  (void)par::run_bsp_async_prepared(g, prepared, context, options);
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  const auto result =
      par::run_bsp_async_prepared(g, prepared, context, options);
  const std::uint64_t allocs =
      g_allocations.load(std::memory_order_relaxed) - before;
  KCORE_CHECK_MSG(result.stats.relaxations >= n,
                  "warm run did not process every vertex");
  records.push_back({"allocations", kWarmRunRow, static_cast<double>(allocs),
                     0.0, "allocs/run"});
  table.add_row({"allocations", kWarmRunRow, std::to_string(allocs), "-",
                 "-"});
}

// --- part 4: one-worker attribution ---------------------------------------

/// Best-of-N warm one-worker runs on a fixed graph: the relax phase's ns
/// per relaxation, and the neighbor estimates read per relaxation (a
/// pure function of the schedule, so identical in every run). The graph
/// goes through an edge list first, which numbers the nodes in order of
/// first appearance, as perfbench's static-decompose inputs are.
void bench_attribution(bool quick, std::vector<Record>& records,
                       util::TableWriter& table) {
  std::stringstream edges;
  graph::write_edge_list(edges,
                         eval::dataset_by_name("berkstan-like").build(0.5, 1));
  const graph::Graph g = graph::read_edge_list(edges).graph;
  core::RunOptions options;
  options.threads = 1;
  options.sched = core::SchedPolicy::kBound;
  const auto prepared = par::prepare_bsp_async(g, options);
  par::AsyncRunContext context(prepared, g.num_nodes());
  double best_ms = 0.0;
  par::AsyncStats stats;
  for (int run = 0; run < (quick ? 5 : 30); ++run) {
    const auto result =
        par::run_bsp_async_prepared(g, prepared, context, options);
    if (run == 0 || result.run_ms < best_ms) best_ms = result.run_ms;
    stats = result.stats;
  }
  const auto relaxations = static_cast<double>(stats.relaxations);
  const double ns = best_ms * 1e6 / relaxations;
  const double reads = static_cast<double>(stats.neighbor_reads) / relaxations;
  records.push_back({"attribution", kAttributionInput, ns, 0.0,
                     "ns/relaxation"});
  records.push_back({"attribution", kAttributionInput, reads, 0.0,
                     "reads/relaxation"});
  table.add_row({"attribution", "ns per relaxation", util::fmt_double(ns, 1),
                 "-", "-"});
  table.add_row({"attribution", "neighbor reads per relaxation",
                 util::fmt_double(reads, 1), "-", "-"});
}

}  // namespace

int main() {
  const bool quick = util::env_bool("KCORE_QUICK", false);
  std::cout << "== bench: kernel microbench (epoch-stamped compute_index, "
               "gather-free relaxation) ==\n"
            << (quick ? "(quick mode)\n" : "") << "\n";

  std::vector<Record> records;
  util::TableWriter table(
      {"section", "input", "legacy", "epoch-stamped", "speedup"});
  bench_compute_index(quick, records, table);
  bench_gather(quick, records, table);
  bench_allocations(quick, records, table);
  bench_attribution(quick, records, table);
  table.print(std::cout);

  // Exit-code gate: every compute_index input must beat the legacy
  // kernel by at least KCORE_KERNEL_MIN_SPEEDUP (default 1.0 = strictly
  // faster). CI sets a sub-1.0 margin so one noisy-neighbor timing
  // window can't flip an input while a real regression (the pre-packed
  // stamp layout measured ~0.5x on mixed inputs) still fails.
  const double min_speedup =
      util::env_double("KCORE_KERNEL_MIN_SPEEDUP", 1.0);
  // A second gate: the warm engine run must allocate nothing.
  bool epoch_strictly_faster = true;
  bool gate_passed = true;
  bool warm_run_allocation_free = true;
  for (const auto& record : records) {
    if (record.input == kWarmRunRow && record.legacy > 0.0) {
      warm_run_allocation_free = false;
    }
    if (record.section != "compute_index") continue;
    if (record.epoch >= record.legacy) epoch_strictly_faster = false;
    if (record.epoch * min_speedup >= record.legacy) gate_passed = false;
  }
  std::cout << "\nepoch-stamped strictly faster on every input: "
            << (epoch_strictly_faster ? "yes" : "NO")
            << "  (exit gate: speedup > " << util::fmt_double(min_speedup, 2)
            << " -> " << (gate_passed ? "pass" : "FAIL") << ")\n"
            << "warm run allocation-free: "
            << (warm_run_allocation_free ? "yes" : "NO") << "  (exit gate -> "
            << (warm_run_allocation_free ? "pass" : "FAIL") << ")\n";
  gate_passed = gate_passed && warm_run_allocation_free;

  const std::string json_path =
      util::env_string("KCORE_KERNEL_JSON").value_or("BENCH_kernel.json");
  std::ofstream json_out(json_path);
  if (json_out.good()) {
    json_out << json_of(records);
    std::cout << "wrote " << json_path << " (" << records.size()
              << " records)\n";
  } else {
    std::cerr << "warning: cannot write " << json_path << "\n";
  }
  return gate_passed ? 0 : 1;
}
