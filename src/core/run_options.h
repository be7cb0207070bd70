// The shared run surface of every protocol in the repo.
//
// Before this header existed, OneToOneConfig, OneToManyConfig and
// sim::EngineConfig each re-declared the delivery mode, seed, round cap
// and fault plan. RunOptions folds all of them into one struct layered on
// sim::EngineConfig, so a single options object can drive any protocol:
// the round-engine protocols read everything, the BSP port reads
// num_hosts/assignment/targeted_send, the sequential baselines read
// nothing. Knobs a protocol does not consume are ignored by the runner
// and policed by api::validate().
//
// Also here:
//  * CommPolicy (§3.2.1), previously declared in one_to_many.h — moved so
//    RunOptions can name it without dragging in the host state machine;
//  * to_string / parse round-trips for every enum knob, so CLIs, benches
//    and config files can select policies by name;
//  * ProgressEvent / ProgressObserver — the unified streaming observer
//    (round, estimate span, cumulative messages) shared by every
//    round-based runtime.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/assignment.h"
#include "graph/graph.h"
#include "obs/options.h"
#include "sim/engine.h"

namespace kcore::core {

/// Host-to-host communication policies of the one-to-many protocol
/// (§3.2.1): one broadcast message per flush vs Algorithm 5's
/// per-destination messages.
enum class CommPolicy {
  kBroadcast,
  kPointToPoint,
};

/// Scheduling policy of the async (chaotic-relaxation) runtime. The §4
/// convergence argument holds for ANY schedule, so the order dirty
/// vertices are popped is a pure performance lever:
///  * kLifo  — freshest activation first (Chase–Lev deque order); the
///    original bsp-async behavior and the fallback fast path.
///  * kDelta — pop the vertex whose neighborhood changed most since it
///    was last relaxed (largest accumulated estimate drop first).
///  * kBound — pop the vertex whose current estimate is lowest, i.e. the
///    one closest to its final value: the global peeling frontier, the
///    chaotic-relaxation analogue of Batagelj–Zaveršnik's bucket order.
/// Every policy converges to the exact decomposition; they differ only in
/// how many relaxations the run needs (pinned by tests).
enum class SchedPolicy {
  kLifo,
  kDelta,
  kBound,
};

/// Every knob shared by the protocol runners, layered on the simulator's
/// EngineConfig (mode, seed, max_rounds, faults). Defaults reproduce the
/// paper's deployed configuration: cycle-driven delivery, targeted send,
/// 16 hosts under modulo assignment with point-to-point communication.
struct RunOptions : sim::EngineConfig {
  /// Hosts (one-to-many) or workers (bsp). Ignored by one-to-one, where
  /// every node is its own host.
  sim::HostId num_hosts = 16;
  AssignmentPolicy assignment = AssignmentPolicy::kModulo;  // §3.2.2
  CommPolicy comm = CommPolicy::kPointToPoint;              // §3.2.1
  bool targeted_send = true;                                // §3.1.2
  /// Worker threads for the real-execution protocols (src/par):
  /// one-to-many-par, bsp-par and bsp-async. 0 = one worker per hardware
  /// thread. Simulated protocols ignore it. Coreness is thread-count
  /// invariant for all of them; the barrier protocols' traffic stats are
  /// too, while bsp-async's schedule profile (steals, re-enqueues) is
  /// interleaving-dependent by nature.
  unsigned threads = 0;
  /// Pop order of the async runtime's dirty-vertex pool. Only bsp-async
  /// consumes it (policed by api::validate); coreness is policy-invariant,
  /// the relaxation count is not.
  SchedPolicy sched = SchedPolicy::kLifo;
  /// Runtime telemetry selection (obs/options.h): per-worker metrics,
  /// Chrome-trace span rings, background convergence sampler. Default:
  /// record nothing. Only the real-execution protocols consume it
  /// (policed by api::validate); requires a KCORE_OBS=ON build to turn
  /// on. The harvested telemetry rides back in
  /// api::DecomposeReport::telemetry.
  obs::ObsOptions obs;

  /// Returns every problem found, empty when the options are usable.
  /// Messages are actionable ("num_hosts must be >= 1, got 0"), meant to
  /// be surfaced verbatim by CLIs and the api facade.
  [[nodiscard]] std::vector<std::string> validate() const;
};

// --- enum <-> string round-trips -------------------------------------------
// parse_*(to_string(x)) == x for every enumerator; parse also accepts the
// common abbreviations used by the CLI (sync, p2p, ...). nullopt on
// unknown input — callers own the error message (CLIs list valid names).

[[nodiscard]] const char* to_string(sim::DeliveryMode mode);
[[nodiscard]] const char* to_string(CommPolicy policy);
[[nodiscard]] const char* to_string(SchedPolicy policy);
// to_string(AssignmentPolicy) lives in core/assignment.h.

[[nodiscard]] std::optional<sim::DeliveryMode> parse_delivery_mode(
    std::string_view name);
[[nodiscard]] std::optional<CommPolicy> parse_comm_policy(
    std::string_view name);
[[nodiscard]] std::optional<AssignmentPolicy> parse_assignment_policy(
    std::string_view name);
[[nodiscard]] std::optional<SchedPolicy> parse_sched_policy(
    std::string_view name);

// --- streaming progress -----------------------------------------------------

/// One per-round progress sample. `estimates` is valid only for the
/// duration of the callback (it aliases a scratch snapshot).
struct ProgressEvent {
  /// 1-based round (one-to-one / one-to-many) or superstep (bsp).
  std::uint64_t round = 0;
  /// Current coreness estimate of every node; monotone non-increasing
  /// over rounds (Theorem 2 keeps them >= the true coreness throughout).
  std::span<const graph::NodeId> estimates;
  /// Cumulative messages sent up to and including this round.
  std::uint64_t messages = 0;
};

/// Unified per-round observer. Invoked after every executed round with
/// the freshest estimates; an empty function is never called.
///
/// Thread-safety contract (holds for EVERY runtime, including the real-
/// thread protocols in src/par): events are delivered serially — at most
/// one invocation in flight, rounds strictly increasing, and a
/// happens-before edge between consecutive invocations. Observers may
/// therefore mutate plain state without locks; they must not assume the
/// events all arrive on the thread that called decompose (the parallel
/// engines fire them from whichever worker completes the round barrier).
using ProgressObserver = std::function<void(const ProgressEvent&)>;

}  // namespace kcore::core
