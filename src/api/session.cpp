#include "api/session.h"

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <mutex>
#include <utility>

#include "util/check.h"
#include "util/clock.h"

namespace kcore::api {

namespace {

using Clock = util::SteadyClock;
using util::ms_between;

void throw_on_problems(const std::vector<std::string>& problems) {
  if (problems.empty()) return;
  std::string joined;
  for (const auto& problem : problems) {
    if (!joined.empty()) joined += "; ";
    joined += problem;
  }
  throw util::CheckError("invalid decompose request: " + joined);
}

/// One cell's RunOptions: the base with the swept axes applied, and the
/// telemetry request clamped off for protocols whose Capabilities lack
/// consumes_obs. A sweep mixing instrumented and uninstrumented
/// protocols (bz baseline next to bsp-async) keeps its obs request
/// where it can be honored instead of failing validation wholesale —
/// the same collapse rule the threads/sched axes already follow.
RunOptions options_for_cell(const RunOptions& base, const PlanCell& cell) {
  RunOptions options = base;
  options.threads = cell.threads;
  options.sched = cell.sched;
  options.seed = cell.seed;
  const auto& registry = ProtocolRegistry::instance();
  if (options.obs.any() && registry.contains(cell.protocol) &&
      !registry.entry(cell.protocol).capabilities.consumes_obs) {
    options.obs = obs::ObsOptions{};
  }
  return options;
}

}  // namespace

Session::Session(const graph::Graph& g, std::string_view protocol,
                 RunOptions options)
    : state_(std::make_unique<State>()) {
  request_.graph = &g;
  request_.protocol = std::string(protocol);
  request_.options = std::move(options);
  throw_on_problems(validate(request_));
}

Session::Session(const DecomposeRequest& request)
    : request_(request), state_(std::make_unique<State>()) {
  throw_on_problems(validate(request_));
}

const Capabilities& Session::capabilities() const noexcept {
  return ProtocolRegistry::instance().entry(request_.protocol).capabilities;
}

Session::State& Session::state() const {
  KCORE_CHECK_MSG(state_ != nullptr,
                  "Session used after being moved from; construct a new one");
  return *state_;
}

const PreparedProtocol& Session::ensure_prepared(double* prepared_cost) const {
  State& state = this->state();
  *prepared_cost = 0.0;
  // Fast path: the release-store below pairs with this acquire, so a
  // true `ready` publishes both the prepared pointer and prepare_ms.
  if (state.ready.load(std::memory_order_acquire)) return *state.prepared;
  std::lock_guard<std::mutex> lock(state.mutex);
  if (!state.ready.load(std::memory_order_relaxed)) {
    const auto& entry = ProtocolRegistry::instance().entry(request_.protocol);
    const auto start = Clock::now();
    state.prepared = entry.prepare(request_);
    state.prepare_ms = ms_between(start, Clock::now());
    state.ready.store(true, std::memory_order_release);
    // Only the caller that performed the derivation absorbs its cost;
    // racers that waited on the mutex start their clocks afterwards.
    *prepared_cost = state.prepare_ms;
  }
  return *state.prepared;
}

void Session::prepare() {
  double prepare_cost = 0.0;
  (void)ensure_prepared(&prepare_cost);
}

bool Session::prepared() const noexcept {
  return state_ != nullptr && state_->ready.load(std::memory_order_acquire);
}

double Session::prepare_ms() const noexcept {
  return prepared() ? state_->prepare_ms : 0.0;
}

std::uint64_t Session::runs_completed() const noexcept {
  return state_ != nullptr
             ? state_->runs_completed.load(std::memory_order_relaxed)
             : 0;
}

DecomposeReport Session::run(const ProgressObserver& observer) const {
  // A run that triggers preparation absorbs the prepare cost into its
  // setup accounting; warm runs report only their residual setup.
  double prepare_cost = 0.0;
  const PreparedProtocol& prepared = ensure_prepared(&prepare_cost);
  const auto start = Clock::now();
  DecomposeReport report = prepared.run(request_, observer);
  const double run_wall_ms = ms_between(start, Clock::now());
  report.protocol = request_.protocol;
  // The elapsed_ms invariant (api.h): where the extras carry phase
  // timings, elapsed is exactly their sum — the phases partition the
  // elapsed time. Elsewhere, elapsed is prepare + measured wall.
  if (auto* par = std::get_if<ParExtras>(&report.extras)) {
    par->setup_ms += prepare_cost;
    report.elapsed_ms = par->setup_ms + par->run_ms;
  } else if (auto* async = std::get_if<AsyncExtras>(&report.extras)) {
    async->setup_ms += prepare_cost;
    report.elapsed_ms = async->setup_ms + async->run_ms;
  } else {
    report.elapsed_ms = prepare_cost + run_wall_ms;
  }
  state_->runs_completed.fetch_add(1, std::memory_order_relaxed);
  return report;
}

// --- Plan -------------------------------------------------------------------

Plan::Plan(const graph::Graph& g, PlanSpec spec)
    : graph_(&g), spec_(std::move(spec)) {
  KCORE_CHECK_MSG(!spec_.protocols.empty(),
                  "a Plan needs at least one protocol");
  KCORE_CHECK_MSG(spec_.repeats >= 1,
                  "repeats must be >= 1, got " << spec_.repeats);
  if (spec_.threads.empty()) spec_.threads = {spec_.base.threads};
  if (spec_.scheds.empty()) spec_.scheds = {spec_.base.sched};
  if (spec_.seeds.empty()) spec_.seeds = {spec_.base.seed};
}

std::vector<PlanCell> Plan::cells() const {
  const auto& registry = ProtocolRegistry::instance();
  std::vector<PlanCell> cells;
  for (const auto& protocol : spec_.protocols) {
    // A protocol that does not consume worker threads (or the async
    // scheduling policy) gets one cell at the base value: sweeping an
    // ignored knob would repeat the same work under different labels
    // (and fail validation).
    std::vector<unsigned> threads = spec_.threads;
    std::vector<core::SchedPolicy> scheds = spec_.scheds;
    if (registry.contains(protocol)) {
      const Capabilities& caps = registry.entry(protocol).capabilities;
      if (!caps.consumes_threads) threads = {spec_.base.threads};
      if (!caps.consumes_sched) scheds = {spec_.base.sched};
    }
    for (const unsigned t : threads) {
      for (const core::SchedPolicy sched : scheds) {
        for (const std::uint64_t seed : spec_.seeds) {
          cells.push_back({protocol, t, sched, seed});
        }
      }
    }
  }
  return cells;
}

std::vector<std::string> Plan::validate() const {
  std::vector<std::string> problems;
  for (const auto& cell : cells()) {
    DecomposeRequest request;
    request.graph = graph_;
    request.protocol = cell.protocol;
    request.options = options_for_cell(spec_.base, cell);
    for (auto& problem : api::validate(request)) {
      if (std::find(problems.begin(), problems.end(), problem) ==
          problems.end()) {
        problems.push_back(std::move(problem));
      }
    }
  }
  return problems;
}

std::vector<PlanCellResult> Plan::run(
    const PlanReportHook& on_report,
    const PlanObserverFactory& observer_factory) {
  std::vector<PlanCellResult> results;
  for (const PlanCell& cell : cells()) {
    Session session(*graph_, cell.protocol,
                    options_for_cell(spec_.base, cell));

    PlanCellResult result;
    result.cell = cell;
    result.repeats = spec_.repeats;
    std::vector<double> wall, warm, run_phase;
    wall.reserve(static_cast<std::size_t>(spec_.repeats));
    for (int repeat = 0; repeat < spec_.repeats; ++repeat) {
      ProgressObserver observer;
      if (observer_factory) observer = observer_factory(cell, repeat);
      DecomposeReport report = session.run(observer);
      if (on_report) on_report(cell, repeat, report);
      wall.push_back(report.elapsed_ms);
      if (repeat == 0) {
        result.first_wall_ms = report.elapsed_ms;
      } else {
        warm.push_back(report.elapsed_ms);
      }
      if (const auto* par = std::get_if<ParExtras>(&report.extras)) {
        run_phase.push_back(par->run_ms);
      } else if (const auto* async =
                     std::get_if<AsyncExtras>(&report.extras)) {
        run_phase.push_back(async->run_ms);
      } else {
        run_phase.push_back(report.elapsed_ms);
      }
      if (repeat + 1 == spec_.repeats) result.last = std::move(report);
    }
    result.prepare_ms = session.prepare_ms();
    result.wall_ms = util::SampleSummary::of(wall);
    result.warm_wall_ms = util::SampleSummary::of(warm);
    result.run_ms = util::SampleSummary::of(run_phase);
    results.push_back(std::move(result));
  }
  return results;
}

}  // namespace kcore::api
