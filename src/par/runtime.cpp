#include "par/runtime.h"

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "core/assignment.h"
#include "par/engine.h"
#include "util/check.h"
#include "util/clock.h"
#include "util/rng.h"

namespace kcore::par {

namespace {

using Clock = util::SteadyClock;
using util::ms_between;

}  // namespace

WorkerShards shard_vertices(const graph::Graph& g,
                            const core::RunOptions& options) {
  const graph::NodeId n = g.num_nodes();
  KCORE_CHECK_MSG(n > 0, "graph must be non-empty");
  WorkerShards shards;
  shards.workers = resolve_workers(options.threads, n);
  shards.owner = core::assign_nodes(n, shards.workers, options.assignment,
                                    util::split_stream(options.seed, 0));
  shards.owned.assign(shards.workers, {});
  for (graph::NodeId u = 0; u < n; ++u) {
    shards.owned[shards.owner[u]].push_back(u);
  }
  return shards;
}

OneToManyParResult run_one_to_many_prepared(
    const graph::Graph& g, const std::vector<core::OneToManyHost>& hosts,
    const core::RunOptions& options, const core::ProgressObserver& observer) {
  OneToManyParResult result;
  const auto setup_start = Clock::now();

  EngineConfig engine_config;
  engine_config.threads = options.threads;
  engine_config.max_rounds =
      options.max_rounds > 0
          ? options.max_rounds
          : static_cast<std::uint64_t>(g.num_nodes()) * 2 + 64;

  // Telemetry: sized to the engine's CLAMPED worker count (the recorder
  // hands out one context per worker). No sampler for this runtime —
  // host state machines expose no concurrency-safe estimate table.
  auto recorder = obs::Recorder::make(
      resolve_workers(options.threads, hosts.size()), options.obs);
  engine_config.recorder = recorder.get();

  // Copy the pristine hosts: each run starts from the exact post-prepare
  // protocol state, so repeated runs are bit-identical.
  Engine<core::OneToManyHost> engine(hosts, engine_config);

  std::vector<graph::NodeId> snapshot(g.num_nodes(), 0);
  auto engine_observer = [&](std::uint64_t round,
                             const std::vector<core::OneToManyHost>& hs) {
    if (!observer) return;
    // Runs inside the barrier completion step: every worker is parked, so
    // reading host state here is race-free and the event stream is
    // serialized in round order.
    for (const auto& h : hs) h.snapshot_into(snapshot);
    observer(core::ProgressEvent{round, snapshot,
                                 engine.stats().total_messages});
  };

  const auto run_start = Clock::now();
  const auto traffic = engine.run(engine_observer);
  const auto run_stop = Clock::now();

  static_cast<core::OneToManyResult&>(result) =
      core::harvest_one_to_many_result(engine.hosts(), g.num_nodes());
  result.traffic = traffic;
  result.threads_used = engine.threads_used();
  result.setup_ms = ms_between(setup_start, run_start);
  result.run_ms = ms_between(run_start, run_stop);
  if (recorder) {
    if (recorder->metrics_on()) {
      // Deterministic protocol totals, folded in post-run (the traffic
      // stats are already exact; the registry view just makes them
      // machine-readable alongside the other runtimes' counters).
      obs::Registry& reg = recorder->registry();
      reg.add(reg.counter("par.rounds"), 0, traffic.rounds_executed);
      reg.add(reg.counter("par.messages"), 0, traffic.total_messages);
    }
    result.telemetry =
        std::make_shared<obs::RunTelemetry>(recorder->harvest());
  }
  return result;
}

}  // namespace kcore::par
