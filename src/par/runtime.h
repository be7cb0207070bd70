// kcore::par — real shared-memory parallel execution of the paper's
// protocols.
//
// Everything under src/par/ exists to turn the repo's *simulated* speedup
// into *measured* speedup: the paper's central claim is that k-core
// decomposition parallelizes cleanly under the one-to-many host model,
// and these runners execute that model with actual worker threads.
//
//  * one-to-many-par — Algorithms 3–5 verbatim: the node set is sharded
//    into `num_hosts` OneToManyHost state machines by the core::assignment
//    policies (core::make_one_to_many_hosts, the simulator's own build
//    step), and par::Engine drives them with `threads` workers,
//    double-buffered SPSC mailboxes and barrier rounds. Coreness AND
//    traffic are bit-identical to the simulator in synchronous mode — the
//    same protocol, now on real cores.
//
//  * bsp-par — the Pregel-style port on shared memory: vertices are
//    sharded across workers, every superstep recomputes dirty vertices
//    with computeIndex against a SHARED ATOMIC estimate table (two
//    epochs, prev/next, swapped at the barrier), and changed vertices
//    activate their neighbors through atomic dirty flags instead of
//    materialized messages. Supersteps and message counts are a pure
//    function of the graph — independent of thread count and shard
//    assignment.
//
// Seed stability: any randomness (the kRandom assignment policy, future
// fault injection) is derived with util::split_stream from the root seed
// and a LOGICAL stream index (shard id, not thread id), so results never
// depend on how many threads happened to run the shards.
//
// Each runtime has one build step (amortizable, immutable afterwards) and
// one run_*_prepared; api::decompose and api::Session are the routes that
// call them. Like the facade, the build steps reject the empty graph.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "bsp/pregel.h"
#include "core/one_to_many.h"
#include "core/run_options.h"
#include "graph/graph.h"
#include "obs/obs.h"

namespace kcore::par {

/// One-to-many result plus the execution profile of the real run.
struct OneToManyParResult : core::OneToManyResult {
  /// Worker threads actually used (after clamping to the shard count).
  unsigned threads_used = 0;
  /// Single-threaded setup (assignment + host construction) vs the
  /// parallel round loop, separated so scaling studies can apply Amdahl
  /// honestly: only run_ms is expected to shrink with threads.
  double setup_ms = 0.0;
  double run_ms = 0.0;
  /// Harvested telemetry; null unless options.obs asked for some. The
  /// convergence sampler is not wired for this runtime (host state has
  /// no concurrency-safe estimate table) — metrics and round traces are.
  std::shared_ptr<const obs::RunTelemetry> telemetry;
};

/// BSP result: coreness plus the framework statistics (messages_* count
/// activation notifications; with the shared estimate table every
/// delivery is "combined" by construction, so emitted == delivered).
struct BspParResult {
  std::vector<graph::NodeId> coreness;
  bsp::BspStats stats;
  unsigned threads_used = 0;
  double setup_ms = 0.0;  // table allocation + shard assignment
  double run_ms = 0.0;    // the parallel superstep loop
  /// Harvested telemetry; null unless options.obs asked for some.
  std::shared_ptr<const obs::RunTelemetry> telemetry;
};

// --- prepared execution -----------------------------------------------------
// The build step performs the graph-dependent derivation (assignment,
// host construction, shards) once, and run_*_prepared executes
// repeatably from it, every run bit-identical under the same options.
// Per-run mutable state (estimate tables, activation flags, worklists)
// lives in a separate *RunContext owned by the caller: api::Session keeps
// one across its runs, and live::RepairEngine and bench/kernel_bench
// build the async one without a Session. A context is reset in place at
// the start of every run (O(N) stores, zero reallocation), so reusing
// one across runs is allocation-free.

/// Run the §3.2 one-to-many protocol on real threads from pristine hosts
/// (core::make_one_to_many_hosts, which consumed num_hosts, assignment,
/// comm and seed) — the threaded twin of core::run_one_to_many_prepared;
/// call it qualified, since ADL on the host vector finds both. Each run
/// copies the hosts into a fresh engine — copying CSR state is much
/// cheaper than re-deriving it from the graph — so this runtime needs no
/// separate run context. Consumed options: threads (0 = hardware
/// concurrency), max_rounds (0 = automatic), obs. mode is ignored — real
/// barrier rounds ARE the synchronous model; faults are rejected by
/// api::validate upstream. result.setup_ms covers only this run's
/// residual setup (host copy + engine construction); the caller accounts
/// the build cost separately.
[[nodiscard]] OneToManyParResult run_one_to_many_prepared(
    const graph::Graph& g, const std::vector<core::OneToManyHost>& hosts,
    const core::RunOptions& options,
    const core::ProgressObserver& observer = {});

/// The vertex→worker shards of the vertex-centric runtimes (bsp-par,
/// bsp-async): the thread count resolved and capped at n, the §3.2.2
/// assignment under a stream split of the root seed (so a different
/// thread count never silently reshuffles unrelated streams), and each
/// worker's vertices in ascending id order. Consumed options: threads,
/// assignment, seed.
struct WorkerShards {
  unsigned workers = 0;
  std::vector<sim::HostId> owner;
  std::vector<std::vector<graph::NodeId>> owned;
};

[[nodiscard]] WorkerShards shard_vertices(const graph::Graph& g,
                                          const core::RunOptions& options);

/// bsp-par, prepared half: the shards. Runs only read it.
using BspParPrepared = WorkerShards;

/// bsp-par, per-run half: the two atomic tables the workers share
/// (estimate epochs, activation flags). One run at a time uses a
/// context; it is reset in place per run, so reuse never reallocates.
struct BspParRunContext {
  explicit BspParRunContext(graph::NodeId n)
      : est_a(n), est_b(n), act_a(n), act_b(n) {}

  std::vector<std::atomic<graph::NodeId>> est_a, est_b;
  std::vector<std::atomic<std::uint8_t>> act_a, act_b;
};

[[nodiscard]] BspParPrepared prepare_bsp_par(const graph::Graph& g,
                                             const core::RunOptions& options);

/// Run the Pregel-style shared-memory port. Consumed options:
/// targeted_send (skip notifying neighbors the new estimate cannot
/// affect), max_rounds, obs; threads, assignment and seed were consumed
/// by prepare_bsp_par. num_hosts is ignored — workers own vertex shards
/// directly.
[[nodiscard]] BspParResult run_bsp_par_prepared(
    const graph::Graph& g, const BspParPrepared& prepared,
    BspParRunContext& context, const core::RunOptions& options,
    const core::ProgressObserver& observer = {});

}  // namespace kcore::par
