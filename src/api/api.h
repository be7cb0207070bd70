// kcore::api — the protocol-agnostic decomposition facade.
//
// The paper defines ONE problem (k-core decomposition, Definition 1) and
// several interchangeable ways to compute it: the sequential
// Batagelj–Zaveršnik baseline [3], the §3.1 one-to-one protocol, the
// §3.2 one-to-many protocol, and the Pregel/BSP port proposed in the
// conclusion. This facade makes that interchangeability a first-class
// API, in the spirit of Pregel's "one vertex-program API, many runtimes":
//
//   api::DecomposeReport report =
//       api::decompose(g, "one-to-many", options);
//
// * One request type: DecomposeRequest = graph + protocol key +
//   core::RunOptions (the shared option set: delivery mode, seed, round
//   cap, fault plan, host count, assignment, comm policy, targeted send).
// * One report type: DecomposeReport = coreness + TrafficStats + a typed
//   variant of per-protocol extras + wall-clock timing.
// * One registry: ProtocolRegistry maps string keys ("bz", "peeling",
//   "one-to-one", "one-to-many", "bsp", "one-to-many-par", "bsp-par",
//   "bsp-async") to preparers; new backends register under a new key and
//   every CLI flag, bench and experiment picks them up by name.
// * One observer: core::ProgressObserver streams (round, estimates,
//   messages) from every round/superstep-based runtime.
//
// Everything outside src/core/ — tools, benches, examples, eval — goes
// through this header instead of including the protocol headers directly.
// decompose() and api::Session are the only routes that run a protocol;
// beneath them each protocol layer exposes one build step and one
// run_*_prepared.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "bsp/pregel.h"
#include "core/run_options.h"
#include "graph/graph.h"
#include "sim/engine.h"

namespace kcore::obs {
struct RunTelemetry;  // obs/obs.h — carried by shared_ptr, never inspected here
}

namespace kcore::api {

// The facade re-exports the shared option vocabulary so callers need only
// this header.
using core::AssignmentPolicy;
using core::CommPolicy;
using core::ProgressEvent;
using core::ProgressObserver;
using core::RunOptions;
using sim::DeliveryMode;
using sim::FaultPlan;
using core::SchedPolicy;
using core::parse_assignment_policy;
using core::parse_comm_policy;
using core::parse_delivery_mode;
using core::parse_sched_policy;
using core::to_string;

/// Registry keys of the built-in protocols (paper section in brackets).
inline constexpr std::string_view kProtocolBz = "bz";              // [3]
inline constexpr std::string_view kProtocolPeeling = "peeling";    // Def. 1
inline constexpr std::string_view kProtocolOneToOne = "one-to-one";    // §3.1
inline constexpr std::string_view kProtocolOneToMany = "one-to-many";  // §3.2
inline constexpr std::string_view kProtocolBsp = "bsp";            // §6 / [9]
// The real-execution family (src/par): the same protocols on actual
// worker threads instead of the round simulator. RunOptions::threads
// selects the pool size; coreness and traffic are thread-count invariant.
inline constexpr std::string_view kProtocolOneToManyPar =
    "one-to-many-par";                                       // §3.2, threaded
inline constexpr std::string_view kProtocolBspPar = "bsp-par";  // §6, threaded
// Chaotic relaxation on real threads: no rounds, no barriers — one shared
// atomic estimate table, work-stealing deques of dirty vertices, and the
// §3.3 centralized termination detector ported to shared memory. The
// paper's convergence-under-asynchrony claim, executed literally.
inline constexpr std::string_view kProtocolBspAsync = "bsp-async";  // §4/§3.3

/// A decomposition request: which graph, which protocol, which knobs.
/// `graph` must outlive the call.
struct DecomposeRequest {
  const graph::Graph* graph = nullptr;
  std::string protocol = std::string(kProtocolBz);
  RunOptions options;
};

// --- per-protocol extras ----------------------------------------------------
// Everything beyond (coreness, traffic) that a protocol reports, as a
// typed variant. Sequential baselines carry std::monostate.

/// One-to-one (§3.1) extras: the per-node activity profile feeding the
/// §3.3 termination-detection analysis.
struct OneToOneExtras {
  std::vector<std::uint64_t> last_send_round;
  std::vector<std::uint64_t> activity_transitions;
};

/// One-to-many (§3.2) extras: the Figure 5 overhead metric and per-host
/// profiles.
struct OneToManyExtras {
  std::uint64_t estimates_shipped_total = 0;
  double overhead_per_node = 0.0;
  std::vector<std::uint64_t> estimates_shipped_by_host;
  std::vector<std::uint64_t> last_send_round_by_host;
};

/// BSP (Pregel) extras: the framework's native statistics.
struct BspExtras {
  bsp::BspStats stats;
};

/// Real-execution extras (the src/par family): the run's threading
/// profile on top of whatever the underlying protocol reports.
struct ParExtras {
  /// Worker threads actually used (requested count clamped to shards).
  unsigned threads_used = 0;
  /// Shards the node set was split into: num_hosts for one-to-many-par,
  /// the worker count itself for bsp-par.
  sim::HostId shards = 0;
  /// Phase split of elapsed_ms: single-threaded setup (assignment, host /
  /// table construction) vs the parallel round loop. Scaling studies
  /// should compute speedup on run_ms — only it parallelizes.
  double setup_ms = 0.0;
  double run_ms = 0.0;
  /// one-to-many-par: the Figure 5 overhead numerator / metric.
  std::uint64_t estimates_shipped_total = 0;
  double overhead_per_node = 0.0;
  /// bsp-par: activation notifications that crossed a shard boundary.
  std::uint64_t cross_shard_messages = 0;
};

/// Async (chaotic-relaxation) extras: the schedule's execution profile.
/// Unlike every other protocol these numbers are NOT deterministic — they
/// depend on the actual interleaving — but the coreness in the report is
/// bit-identical to the sequential baseline regardless (pinned by
/// tests/test_async_property.cpp).
struct AsyncExtras {
  unsigned threads_used = 0;
  /// The scheduling policy the run executed under (RunOptions::sched) —
  /// the knob the relaxation count below is a function of.
  core::SchedPolicy sched = core::SchedPolicy::kLifo;
  /// Vertex recomputations executed (>= one per vertex).
  std::uint64_t relaxations = 0;
  /// Vertices taken from another worker's lane.
  std::uint64_t steals = 0;
  /// Re-activations of already-processed vertices (successful in-queue
  /// flag transitions after the initial all-dirty seeding).
  std::uint64_t re_enqueues = 0;
  /// Quiescence-detector confirmation passes.
  std::uint64_t detector_passes = 0;
  /// Relaxations resolved without running the counting kernel (no
  /// neighbor estimate below the vertex's own — the answer is its
  /// current estimate by monotonicity).
  std::uint64_t skipped_recomputes = 0;
  /// Deque probes during pops/steal sweeps — the priority pool's scan
  /// overhead (== pops under lifo, higher for the bucketed policies).
  std::uint64_t pop_scans = 0;
  /// Single-threaded setup (table + worklist seeding) vs the parallel
  /// relaxation phase; speedup studies should use run_ms.
  double setup_ms = 0.0;
  double run_ms = 0.0;
};

using ProtocolExtras =
    std::variant<std::monostate, OneToOneExtras, OneToManyExtras, BspExtras,
                 ParExtras, AsyncExtras>;

/// The unified result of a decomposition run.
///
/// `traffic` is the protocol's native TrafficStats where one exists
/// (one-to-one, one-to-many — bit-identical to their run_*_prepared
/// results). The other runtimes map onto it: sequential baselines report
/// zero messages/rounds with converged=true; bsp reports supersteps as
/// rounds and delivered messages as total_messages (the full BspStats sit
/// in extras).
struct DecomposeReport {
  std::string protocol;
  std::vector<graph::NodeId> coreness;
  sim::TrafficStats traffic;
  ProtocolExtras extras;
  /// Wall-clock time of the protocol run itself (excludes validation and
  /// registry dispatch). Invariant: where the extras carry phase timings
  /// (ParExtras, AsyncExtras), elapsed_ms == setup_ms + run_ms exactly —
  /// the phases partition the elapsed time, nothing is double-counted
  /// (pinned by test_api.cpp). setup_ms covers the amortizable work this
  /// call actually performed: a warm Session::run() reports only its
  /// residual setup, a one-shot decompose() the full derivation.
  double elapsed_ms = 0.0;
  /// Harvested runtime telemetry (obs/obs.h): metrics snapshot, trace
  /// rings, convergence samples. Null unless options.obs requested some
  /// AND the protocol's Capabilities::consumes_obs — the sequential and
  /// simulated runtimes have no instrumented worker loops. Shared, not
  /// unique: benches keep the last report while streaming telemetry into
  /// writers.
  std::shared_ptr<const obs::RunTelemetry> telemetry;
};

// --- capabilities -----------------------------------------------------------

/// How a protocol executes — the spine of the capability descriptor,
/// rendered by `kcore protocols` and the README table.
enum class ExecutionKind {
  kSequential,      // single-threaded in-process baseline
  kSimulated,       // sim::Engine / BSP superstep rounds (PeerSim-style)
  kThreadedRounds,  // real worker threads with barrier rounds (src/par)
  kAsync,           // real threads, no barriers (chaotic relaxation)
};

/// What a protocol can stream to a ProgressObserver.
enum class ObserverGranularity {
  kNone,      // completes silently (sequential baselines, round-free async)
  kPerRound,  // one ProgressEvent per round / superstep
};

[[nodiscard]] const char* to_string(ExecutionKind kind);
[[nodiscard]] const char* to_string(ObserverGranularity granularity);

/// Self-describing execution profile of a protocol: how it runs, which
/// RunOptions knobs it consumes, and whether its report is a pure
/// function of (graph, options). validate() derives every per-protocol
/// rule from this descriptor — registering a backend means writing ONE
/// truthful descriptor, not extending if-chains — and the CLI/README
/// protocol tables render it.
///
/// The consumes_* flags police the "silent lie" knobs: a non-default
/// delivery mode, fault plan, comm policy or thread count aimed at a
/// protocol that does not consume it is a validation error, because the
/// report would otherwise look as if the knob had been honored.
/// Value-bearing knobs whose default is indistinguishable from intent
/// (num_hosts, seed, max_rounds) are documented but not policed, and
/// targeted_send stays unpoliced because one-to-many subsumes it by
/// design (host-level batching) rather than silently dropping it.
struct Capabilities {
  ExecutionKind execution = ExecutionKind::kSequential;
  bool consumes_delivery_mode = false;  // RunOptions::mode
  bool consumes_fault_plan = false;     // RunOptions::faults
  bool consumes_comm_policy = false;    // RunOptions::comm (§3.2.1)
  bool consumes_assignment = false;     // RunOptions::assignment (§3.2.2)
  bool consumes_hosts = false;          // RunOptions::num_hosts
  bool consumes_threads = false;        // RunOptions::threads
  bool consumes_sched = false;          // RunOptions::sched (async pool)
  bool consumes_targeted_send = false;  // §3.1.2 toggle
  bool consumes_max_rounds = false;     // RunOptions::max_rounds
  /// RunOptions::obs — the runtime threads obs::WorkerContexts through
  /// its hot loops and returns DecomposeReport::telemetry. False for the
  /// sequential/simulated family: requesting telemetry there is the same
  /// "silent lie" as a fault plan with no channel to break.
  bool consumes_obs = false;
  ObserverGranularity observer = ObserverGranularity::kNone;
  /// False only for schedule-dependent profiles (bsp-async): coreness is
  /// always deterministic, but steals/relaxation counts are not. The
  /// Session parity tests key off this flag.
  bool deterministic_extras = true;
};

/// The consumed-knob flags as stable human/CLI-facing names (e.g.
/// {"mode", "faults", "comm"}); the single source for every capability
/// table.
[[nodiscard]] std::vector<std::string_view> consumed_knobs(
    const Capabilities& capabilities);

// --- registry ---------------------------------------------------------------

/// One protocol, prepared: the amortizable derivation (assignment,
/// host/shard construction, seed orders) happened at construction time;
/// run() is repeatable and every run's report is bit-identical to a
/// one-shot decompose() of the same request (timing fields and
/// schedule-dependent extras excepted). run() may keep per-run tables
/// (estimate tables, worklists) between calls, so one instance serves
/// one caller at a time, like a standard container.
class PreparedProtocol {
 public:
  virtual ~PreparedProtocol() = default;

  /// Execute one run. setup-phase timings in the report cover only this
  /// run's residual setup (run-context construction or reset); Session
  /// adds the prepare cost to the run that triggered preparation.
  [[nodiscard]] virtual DecomposeReport run(
      const DecomposeRequest& request, const ProgressObserver& observer) = 0;
};

/// String-keyed protocol registry. Keys are stable CLI-facing names;
/// registration is open — experiments and future backends can add
/// preparers at startup and every facade consumer picks them up by name.
class ProtocolRegistry {
 public:
  using Preparer = std::function<std::unique_ptr<PreparedProtocol>(
      const DecomposeRequest&)>;

  struct Entry {
    std::string name;           // registry key, e.g. "one-to-many"
    std::string paper_section;  // e.g. "§3.2" — the protocol table's spine
    std::string summary;        // one-line human description
    Capabilities capabilities;  // drives validate() and the tables
    /// Prepared-execution factory backing api::Session; every call, the
    /// one-shot decompose() included, runs through it.
    Preparer prepare;
  };

  /// The process-wide registry, with the eight built-ins pre-registered.
  [[nodiscard]] static ProtocolRegistry& instance();

  /// Register a protocol. Throws util::CheckError on a duplicate key or
  /// when `prepare` is missing.
  void add(Entry entry);

  [[nodiscard]] bool contains(std::string_view name) const;

  /// Lookup by key; throws util::CheckError naming the unknown key and
  /// listing every registered one.
  [[nodiscard]] const Entry& entry(std::string_view name) const;

  /// Registered keys in registration order (built-ins first).
  [[nodiscard]] std::vector<std::string> names() const;

  [[nodiscard]] const std::vector<Entry>& entries() const noexcept {
    return entries_;
  }

 private:
  ProtocolRegistry();

  std::vector<Entry> entries_;
};

// --- entry points -----------------------------------------------------------

/// Validate a request without running it: unknown protocol, null graph,
/// out-of-range options, and knobs the chosen protocol does not consume
/// per its Capabilities descriptor (e.g. a fault plan aimed at a
/// channel-less runtime). A single data-driven pass — no per-protocol
/// branching; every rule derives from the registry's descriptors.
/// Returns every problem found; empty means the request is runnable.
[[nodiscard]] std::vector<std::string> validate(const DecomposeRequest& request);

/// Run a decomposition. Throws util::CheckError with the validate()
/// problems if the request is invalid. The observer (optional) streams
/// per-round progress from runtimes whose Capabilities::observer is
/// kPerRound; the others complete without events.
///
/// This is a thin wrapper over api::Session (see api/session.h):
/// prepare + one run. The run replays from pristine prepared state (one
/// O(N+M) copy the pre-Session one-shot path did not make — deliberate:
/// the protocol run dominates it, and one execution path keeps one-shot
/// and warm reports bit-identical by construction). Callers that
/// decompose the same (graph, protocol, options) repeatedly should hold
/// a Session and amortize the prepare itself.
[[nodiscard]] DecomposeReport decompose(const DecomposeRequest& request,
                                        const ProgressObserver& observer = {});

/// Convenience overload: decompose `g` with `protocol` under `options`.
[[nodiscard]] DecomposeReport decompose(const graph::Graph& g,
                                        std::string_view protocol,
                                        const RunOptions& options = {},
                                        const ProgressObserver& observer = {});

}  // namespace kcore::api
