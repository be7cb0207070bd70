#include "par/async_engine.h"

#include <atomic>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "par/engine.h"
#include "par/relax.h"
#include "par/runtime.h"
#include "util/check.h"
#include "util/clock.h"

namespace kcore::par {

// --- bsp-async ---------------------------------------------------------------
// The worker loop is par::relax (par/relax.h), shared with live repair;
// this runner owns what is static-only: the degree reset, the prepared
// per-worker seed order, the convergence sampler and the AsyncStats fold.

namespace {

using Clock = util::SteadyClock;

}  // namespace

AsyncPrepared prepare_bsp_async(const graph::Graph& g,
                                const core::RunOptions& options) {
  // Initial distribution of the all-dirty vertex set over the worker
  // lanes. Only the materialized per-worker seed ORDER is kept; warm runs
  // replay it without re-walking an owner array.
  WorkerShards shards = shard_vertices(g, options);
  return AsyncPrepared{shards.workers, options.sched, std::move(shards.owned)};
}

AsyncResult run_bsp_async_prepared(const graph::Graph& g,
                                   const AsyncPrepared& prepared,
                                   AsyncRunContext& context,
                                   const core::RunOptions& options) {
  AsyncResult result;
  const graph::NodeId n = g.num_nodes();
  KCORE_CHECK_MSG(context.est.size() == n,
                  "run context does not match this graph");
  KCORE_CHECK_MSG(prepared.sched == options.sched,
                  "prepared state was built for --sched "
                      << core::to_string(prepared.sched)
                      << ", this run asks for "
                      << core::to_string(options.sched));
  KCORE_CHECK_MSG(
      prepared.workers == resolve_workers(options.threads, n),
      "prepared state was built for " << prepared.workers
                                      << " workers, this run asks for "
                                      << options.threads << " threads");
  const unsigned workers = prepared.workers;
  result.threads_used = workers;
  const auto setup_start = Clock::now();

  // Reset the context's estimate table to the degrees (Algorithm 1's
  // starting estimate).
  std::vector<std::atomic<graph::NodeId>>& est = context.est;
  for (graph::NodeId u = 0; u < n; ++u) {
    est[u].store(g.degree(u), std::memory_order_relaxed);
  }

  // Reset-in-place, then replay the cached per-worker seed order, each
  // vertex at its starting estimate as priority: a reused context
  // allocates nothing here (the queue keeps its grown storage).
  context.reset_queue();
  if (context.one_worker) context.one_worker->counts.reserve(g.num_arcs());
  for (unsigned w = 0; w < workers; ++w) {
    for (const std::uint32_t u : prepared.seeds[w]) {
      context.seed(u, w, g.degree(u));
    }
  }

  auto recorder = obs::Recorder::make(workers, options.obs);
  // The convergence sampler reads only concurrency-safe state: the
  // queue's outstanding and queued counts, and acquire loads of the
  // shared estimate table. Because estimates only decrease (Theorem 2),
  // the sampled sum is a monotone Fig.-4 error proxy — no round observer
  // needed.
  if (recorder) {
    recorder->start_sampler([&context, &est, n](obs::Sample& s) {
      s.outstanding = context.outstanding();
      s.worklist_depth = context.size_estimate();
      double sum = 0.0;
      for (graph::NodeId u = 0; u < n; ++u) {
        sum += static_cast<double>(est[u].load(std::memory_order_acquire));
      }
      s.sum_estimates = sum;
    });
  }

  const auto run_start = Clock::now();
  result.stats = relax(g, context, options.targeted_send, recorder.get());
  const auto run_stop = Clock::now();
  if (recorder) recorder->stop_sampler();

  result.setup_ms =
      util::ms_between(setup_start, run_start);
  result.run_ms =
      util::ms_between(run_start, run_stop);
  if (recorder) {
    result.telemetry =
        std::make_shared<obs::RunTelemetry>(recorder->harvest());
  }
  return result;
}

}  // namespace kcore::par
