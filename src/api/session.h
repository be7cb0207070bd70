// kcore::api::Session and kcore::api::Plan — amortized, repeatable
// execution on top of the decompose facade.
//
// The paper's pitch is one problem served by interchangeable runtimes.
// One-shot decompose() re-derives everything per call — assignment,
// host/shard construction, estimate-table allocation — even though none
// of it depends on anything but (graph, protocol, options). Session
// splits that out:
//
//   api::Session session(g, "one-to-many-par", options);
//   session.prepare();              // assignment + hosts + tables, once
//   for (...) auto r = session.run();  // repeatable; reports bit-identical
//                                      // to one-shot decompose()
//
// run() without prepare() prepares on demand (and bills the cost to that
// run's setup time). The parity contract — warm run() == one-shot
// decompose() on every non-timing field, with schedule-dependent extras
// excepted per Capabilities::deterministic_extras — is pinned for every
// registered protocol by tests/test_session.cpp.
//
// THREADING: a Session has the contract of a standard container.
// Distinct Sessions on distinct threads share no mutable state; one
// Session is used by one thread at a time. The parallelism of a run
// lives inside it (RunOptions::threads), not across callers.
//
// Plan turns repeated Sessions into declarative sweeps: the cross
// product of protocols × threads × seeds, each cell prepared once and
// run `repeats` times, with min/median/max aggregation per cell. The
// CLI's `sweep` subcommand and the eval drivers ride it instead of
// hand-rolled loops.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "api/api.h"
#include "util/stats.h"

namespace kcore::api {

/// A prepared, repeatable decomposition: binds (graph, protocol,
/// options) once, derives the amortizable state in prepare(), and serves
/// any number of run() calls from it, one at a time. The graph must
/// outlive the Session.
class Session {
 public:
  /// Validates eagerly: throws util::CheckError listing every problem
  /// (same contract as decompose()).
  Session(const graph::Graph& g, std::string_view protocol,
          RunOptions options = {});
  explicit Session(const DecomposeRequest& request);

  /// Movable: the state lives behind one heap allocation, so moving a
  /// prepared Session transfers it wholesale — runs on the destination
  /// stay bit-identical. The moved-from Session is empty: prepare()/run()
  /// on it throw util::CheckError (pinned by tests/test_session.cpp's
  /// use-after-move regression), the observers below report
  /// unprepared/zero.
  Session(Session&&) noexcept = default;
  Session& operator=(Session&&) noexcept = default;

  [[nodiscard]] const std::string& protocol() const noexcept {
    return request_.protocol;
  }
  [[nodiscard]] const RunOptions& options() const noexcept {
    return request_.options;
  }
  [[nodiscard]] const graph::Graph& graph() const noexcept {
    return *request_.graph;
  }
  [[nodiscard]] const Capabilities& capabilities() const noexcept;

  /// Build the amortizable state (assignment, host/shard construction,
  /// seed orders — the protocol layer's build step). Idempotent: a
  /// prepared Session keeps its state.
  void prepare();
  [[nodiscard]] bool prepared() const noexcept;
  /// Wall-clock cost of the prepare() that built the current state
  /// (0 until prepared).
  [[nodiscard]] double prepare_ms() const noexcept;

  /// Execute one run. Warm runs (state already prepared) report only
  /// their residual setup in the phase timings; the run that triggers
  /// preparation absorbs the prepare cost, so a one-shot
  /// Session(...).run() equals decompose() in accounting too. Warm
  /// bsp-par and bsp-async runs reuse the first run's tables instead of
  /// allocating their own.
  [[nodiscard]] DecomposeReport run(const ProgressObserver& observer = {});

  [[nodiscard]] std::uint64_t runs_completed() const noexcept;

 private:
  /// Heap-held so a moved-from Session has none: the prepared protocol
  /// (null until prepared), its build cost and the run counter.
  struct State {
    std::unique_ptr<PreparedProtocol> prepared;
    double prepare_ms = 0.0;
    std::uint64_t runs_completed = 0;
  };

  /// Throws util::CheckError when this Session was moved from.
  [[nodiscard]] State& state();
  /// Returns the prepared protocol, building it on first need;
  /// *prepared_cost is the prepare time to bill to this caller (0 when
  /// it was already built).
  [[nodiscard]] PreparedProtocol& ensure_prepared(double* prepared_cost);

  DecomposeRequest request_;
  std::unique_ptr<State> state_;
};

// --- declarative sweeps -----------------------------------------------------

/// Axes of a sweep. Cells are the cross product protocols × threads ×
/// seeds; each cell binds one Session (prepare once) and runs it
/// `repeats` times. For a protocol whose Capabilities lack
/// consumes_threads the threads axis collapses to the base value —
/// sweeping a knob the runtime ignores would just repeat the same cell
/// (and fail validation).
struct PlanSpec {
  std::vector<std::string> protocols;
  /// RunOptions::threads values to sweep; empty = {base.threads}.
  std::vector<unsigned> threads;
  /// RunOptions::sched policies to sweep; empty = {base.sched}. Collapses
  /// to the base value for protocols without consumes_sched, like the
  /// threads axis.
  std::vector<core::SchedPolicy> scheds;
  /// RunOptions::seed values to sweep; empty = {base.seed}.
  std::vector<std::uint64_t> seeds;
  /// run() calls per cell (>= 1). The first pays prepare; the rest are
  /// warm.
  int repeats = 1;
  /// Every other knob, shared by all cells. base.obs (telemetry) is
  /// clamped off per cell for protocols without Capabilities::
  /// consumes_obs, so a sweep mixing sequential baselines with the par
  /// family can still request metrics for the runtimes that honor them.
  RunOptions base;
};

/// Coordinates of one cell.
struct PlanCell {
  std::string protocol;
  unsigned threads = 0;
  core::SchedPolicy sched = core::SchedPolicy::kLifo;
  std::uint64_t seed = 0;
};

/// Aggregated result of one cell. wall_ms aggregates
/// DecomposeReport::elapsed_ms over all repeats; warm_wall_ms drops the
/// first (prepare-bearing) run — count 0 when repeats == 1. run_ms
/// aggregates the parallel phase where the extras carry one, else the
/// whole elapsed time.
struct PlanCellResult {
  PlanCell cell;
  int repeats = 0;
  double prepare_ms = 0.0;
  double first_wall_ms = 0.0;
  util::SampleSummary wall_ms;
  util::SampleSummary warm_wall_ms;
  util::SampleSummary run_ms;
  /// Full report of the final repeat (coreness, traffic, extras).
  DecomposeReport last;
};

/// Per-report hook: called after every run with the cell coordinates,
/// the 0-based repeat index, and the full report. Experiment drivers
/// aggregate custom metrics here instead of hand-rolling the loops.
using PlanReportHook = std::function<void(
    const PlanCell&, int repeat, const DecomposeReport&)>;

/// Per-run observer factory: invoked before each run to build the
/// ProgressObserver streamed through that run (empty = no streaming).
/// Lets round-instrumented experiments (error evolution, convergence
/// checkpoints) ride a Plan instead of hand-rolling their run loops.
using PlanObserverFactory =
    std::function<ProgressObserver(const PlanCell&, int repeat)>;

/// A declarative sweep executor over one graph.
class Plan {
 public:
  /// The graph must outlive the Plan. Throws util::CheckError when the
  /// spec is structurally unusable (no protocols, repeats < 1).
  Plan(const graph::Graph& g, PlanSpec spec);

  /// The expanded cell list (collapse rules applied), in execution order.
  [[nodiscard]] std::vector<PlanCell> cells() const;

  /// Validation problems across every cell (api::validate per cell,
  /// deduplicated); empty means run() will not throw on validation.
  [[nodiscard]] std::vector<std::string> validate() const;

  /// Execute the sweep cell by cell. Throws on the first invalid cell
  /// (call validate() first to pre-flight).
  [[nodiscard]] std::vector<PlanCellResult> run(
      const PlanReportHook& on_report = {},
      const PlanObserverFactory& observer_factory = {});

 private:
  const graph::Graph* graph_;
  PlanSpec spec_;
};

}  // namespace kcore::api
