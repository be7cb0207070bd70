#include "core/run_options.h"

#include <optional>
#include <string>
#include <vector>

namespace kcore::core {

std::vector<std::string> RunOptions::validate() const {
  std::vector<std::string> problems;
  if (num_hosts < 1) {
    problems.push_back("num_hosts must be >= 1, got " +
                       std::to_string(num_hosts) +
                       " (one-to-many and bsp need at least one host)");
  }
  if (threads > 4096) {
    problems.push_back("threads must be <= 4096, got " +
                       std::to_string(threads) +
                       " (0 means one worker per hardware thread)");
  }
  // Negated comparisons, so NaN fails too.
  if (!(faults.duplicate_probability >= 0.0 &&
        faults.duplicate_probability <= 1.0)) {
    problems.push_back(
        "faults.duplicate_probability (--dup-prob) must be in [0, 1], got " +
        std::to_string(faults.duplicate_probability));
  }
  if (!(obs.sample_period_ms >= 0.0)) {
    problems.push_back(
        "obs.sample_period_ms (--sample-period) must be >= 0, got " +
        std::to_string(obs.sample_period_ms) + " (0 disables the sampler)");
  }
  if (obs.trace && obs.trace_capacity < 1) {
    problems.push_back(
        "obs.trace_capacity must be >= 1 when tracing is on "
        "(events per worker ring)");
  }
  return problems;
}

const char* to_string(sim::DeliveryMode mode) {
  switch (mode) {
    case sim::DeliveryMode::kSynchronous:
      return "sync";
    case sim::DeliveryMode::kCycleRandomOrder:
      return "cycle";
  }
  return "?";
}

const char* to_string(CommPolicy policy) {
  switch (policy) {
    case CommPolicy::kBroadcast:
      return "broadcast";
    case CommPolicy::kPointToPoint:
      return "point-to-point";
  }
  return "?";
}

const char* to_string(SchedPolicy policy) {
  switch (policy) {
    case SchedPolicy::kLifo:
      return "lifo";
    case SchedPolicy::kBound:
      return "bound";
  }
  return "?";
}

std::optional<sim::DeliveryMode> parse_delivery_mode(std::string_view name) {
  if (name == "sync" || name == "synchronous") {
    return sim::DeliveryMode::kSynchronous;
  }
  if (name == "cycle" || name == "cycle-random-order") {
    return sim::DeliveryMode::kCycleRandomOrder;
  }
  return std::nullopt;
}

std::optional<CommPolicy> parse_comm_policy(std::string_view name) {
  if (name == "broadcast" || name == "bcast") return CommPolicy::kBroadcast;
  if (name == "point-to-point" || name == "p2p") {
    return CommPolicy::kPointToPoint;
  }
  return std::nullopt;
}

std::optional<AssignmentPolicy> parse_assignment_policy(
    std::string_view name) {
  if (name == "modulo") return AssignmentPolicy::kModulo;
  if (name == "block") return AssignmentPolicy::kBlock;
  if (name == "random") return AssignmentPolicy::kRandom;
  if (name == "hash") return AssignmentPolicy::kHash;
  return std::nullopt;
}

std::optional<SchedPolicy> parse_sched_policy(std::string_view name) {
  if (name == "lifo") return SchedPolicy::kLifo;
  if (name == "bound") return SchedPolicy::kBound;
  return std::nullopt;
}

}  // namespace kcore::core
