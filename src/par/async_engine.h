// Async chaotic-relaxation runtime — the paper's protocol with the round
// structure removed entirely.
//
// The §4 proofs never rely on synchrony: estimates are upper bounds that
// only decrease (Theorem 2), computeIndex is monotone in its inputs, and
// the true coreness is the unique fixed point (Theorem 1). Any schedule
// that (a) applies computeIndex with SOME previously-published estimates
// and (b) re-examines a vertex whenever a neighbor's estimate drops,
// converges to the exact decomposition — that is chaotic relaxation, and
// it is exactly the asynchrony tolerance the paper claims for deployed
// (non-lockstep) hosts. run_bsp_async_prepared executes it on shared
// memory: it resets the estimate table to the degrees, seeds every vertex
// and runs par::relax (par/relax.h), whose comment describes the worker
// protocol.
//
// AsyncWorklist is the scheduling core (flags + priority pool + detector)
// factored out of the engine — into par/async_worklist.h, as a template
// over the chk synchronization shim — so tests/test_async_runtime.cpp and
// tests/test_priority_pool.cpp can hammer the protocol directly, without
// a graph in the loop, and tests/test_chk.cpp can model-check it under
// controlled schedules.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/compute_index.h"
#include "core/run_options.h"
#include "graph/graph.h"
#include "obs/obs.h"
#include "par/async_worklist.h"
#include "par/one_worker.h"

namespace kcore::par {

/// Execution profile of an async run (the AsyncExtras payload).
struct AsyncStats {
  /// Vertex recomputations executed (>= n: every vertex is processed at
  /// least once, re-activations add more). The scheduling policy's whole
  /// job is to shrink this number.
  std::uint64_t relaxations = 0;
  /// Vertices obtained from another worker's lane.
  std::uint64_t steals = 0;
  /// Successful 0->1 flag transitions AFTER the initial seeding — the
  /// activation notifications that actually materialized.
  std::uint64_t re_enqueues = 0;
  /// Quiescence-detector confirmation passes started.
  std::uint64_t detector_passes = 0;
  /// Relaxations resolved by the fast path: no neighbor estimate was
  /// below the vertex's own, so computeIndex cannot lower it and the
  /// counting kernel is skipped entirely.
  std::uint64_t skipped_recomputes = 0;
  /// Deque probes performed while popping/stealing — the priority pool's
  /// scan overhead (== successful pops for lifo, higher for the bucketed
  /// policies and for dry steal sweeps).
  std::uint64_t pop_scans = 0;
  /// Neighbor estimates loaded, by the counting and the wake passes
  /// together — the kernel's memory traffic (bench/kernel_bench).
  std::uint64_t neighbor_reads = 0;
};

/// The run profile; the coreness stays in the run's AsyncRunContext
/// (copy it out with AsyncRunContext::copy_estimates).
struct AsyncResult {
  AsyncStats stats;
  unsigned threads_used = 0;
  double setup_ms = 0.0;  // table/worklist reset + seeding
  double run_ms = 0.0;    // the chaotic-relaxation phase
  /// Harvested telemetry; null unless options.obs asked for some.
  std::shared_ptr<const obs::RunTelemetry> telemetry;
};

/// Amortizable state of an async run, built once by prepare_bsp_async —
/// everything that is a pure function of (graph, options) and that runs
/// only read:
///  * the per-worker SEED ORDER (the §3.2.2 assignment materialized as
///    one vertex list per lane, so warm runs never re-walk the owner
///    array),
///  * the resolved worker count and scheduling policy.
/// The mutable tables live apart, in an AsyncRunContext, so callers
/// without a prepared run (bench/kernel_bench, the kernel's tests) can
/// build and keep one of their own.
struct AsyncPrepared {
  unsigned workers = 0;
  core::SchedPolicy sched = core::SchedPolicy::kLifo;
  std::vector<std::vector<std::uint32_t>> seeds;
};

/// The mutable tables par::relax (par/relax.h) works on, owned privately
/// by one run at a time:
///  * the shared atomic estimate table (run_bsp_async_prepared resets it
///    to the degrees per run; a caller may start it from any safe upper
///    bound),
///  * one counting scratch per worker,
///  * the queue: at one worker the plain bucket stacks, the support
///    counters and the neighbour-estimate histogram arena
///    (par/one_worker.h), otherwise the worklist (flags + pool +
///    detector). Either is reset in place per run, so sequential reuse
///    re-allocates nothing.
struct AsyncRunContext {
  AsyncRunContext(const AsyncPrepared& prepared, graph::NodeId n)
      : est(n), scratch(prepared.workers) {
    if (prepared.workers == 1) {
      one_worker = std::make_unique<OneWorkerState>(n, prepared.sched);
    } else {
      worklist = std::make_unique<AsyncWorklist>(n, prepared.workers,
                                                 prepared.sched);
    }
  }

  [[nodiscard]] unsigned workers() const noexcept {
    return one_worker ? 1 : worklist->workers();
  }

  /// Empty the queue before seeding a run.
  void reset_queue() {
    if (one_worker) {
      one_worker->queue.reset();
    } else {
      worklist->reset();
    }
  }

  /// Queue `u` on `worker`'s lane at priority `priority` (its estimate).
  void seed(std::uint32_t u, unsigned worker, graph::NodeId priority) {
    if (one_worker) {
      (void)one_worker->queue.schedule(u, priority);
    } else {
      worklist->seed(u, worker, priority);
    }
  }

  /// Racy snapshots for the obs sampler: work not yet finished, and work
  /// queued. One worker counts only the queued items for both.
  [[nodiscard]] std::int64_t outstanding() const {
    return one_worker ? static_cast<std::int64_t>(
                            one_worker->queue.size_estimate())
                      : worklist->detector().outstanding();
  }
  [[nodiscard]] std::uint64_t size_estimate() const {
    return one_worker ? one_worker->queue.size_estimate()
                      : worklist->size_estimate();
  }

  /// Copy the estimate table out (between runs: the workers have joined).
  void copy_estimates(std::vector<graph::NodeId>& out) const {
    out.resize(est.size());
    for (std::size_t u = 0; u < est.size(); ++u) {
      out[u] = est[u].load(std::memory_order_relaxed);
    }
  }

  /// A worker's scratch on its own cache line: the epoch it bumps on
  /// every count must not false-share with its neighbor's.
  struct alignas(64) WorkerScratch {
    core::IndexScratch index;
  };

  std::vector<std::atomic<graph::NodeId>> est;
  std::vector<WorkerScratch> scratch;
  std::unique_ptr<OneWorkerState> one_worker;  // exactly one of these two
  std::unique_ptr<AsyncWorklist> worklist;
};

[[nodiscard]] AsyncPrepared prepare_bsp_async(const graph::Graph& g,
                                              const core::RunOptions& options);

/// Run the async chaotic-relaxation decomposition from prepared state and
/// a run context. prepare_bsp_async consumes threads
/// (0 = hardware concurrency), sched (pop-order policy — pure
/// performance, coreness is policy-invariant), assignment + seed (initial
/// distribution of vertices over worker lanes — a pure function of the
/// options, never of the schedule); the run consumes targeted_send
/// (§3.1.2 wake filter, safe under asynchrony because estimates only
/// decrease) and obs. mode, max_rounds, num_hosts and comm are round-/
/// simulator-shaped and are ignored (api::validate polices the ones that
/// would silently lie). There is no progress observer: the
/// ProgressObserver contract is per-round, and this runtime has no rounds.
///
/// The final table, left in context.est, is the coreness, bit-identical
/// to the sequential baseline; a warm run allocates nothing. The schedule
/// profile in stats is interleaving-dependent as always. result.setup_ms
/// covers only this run's residual setup (table + worklist reset +
/// seeding). `options.sched` and `options.threads` must match the
/// prepared state.
[[nodiscard]] AsyncResult run_bsp_async_prepared(
    const graph::Graph& g, const AsyncPrepared& prepared,
    AsyncRunContext& context, const core::RunOptions& options);

}  // namespace kcore::par
