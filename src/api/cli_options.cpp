#include "api/cli_options.h"

#include <limits>
#include <sstream>
#include <string>

#include "util/check.h"

namespace kcore::api {

namespace {

constexpr auto kMaxI64 = std::numeric_limits<std::int64_t>::max();
constexpr std::int64_t kMaxThreads = 4096;

/// An integer flag, bounds-checked BEFORE the unsigned cast — `--hosts
/// -1` must die with a message naming the flag, not wrap to 4e9 and fail
/// deep inside a protocol runner.
std::int64_t checked(const char* name, std::int64_t value, std::int64_t min,
                     std::int64_t max) {
  if (value < min || value > max) {
    throw util::IoError("--" + std::string(name) + " must be in [" +
                        std::to_string(min) + ", " + std::to_string(max) +
                        "], got " + std::to_string(value));
  }
  return value;
}

core::SchedPolicy parse_sched(const char* name, const std::string& text) {
  const auto parsed = core::parse_sched_policy(text);
  if (!parsed) {
    throw util::IoError("--" + std::string(name) + " '" + text +
                        "' is not a scheduling policy; accepted: lifo, bound");
  }
  return *parsed;
}

}  // namespace

std::int64_t get_checked(const util::Args& args, const char* name,
                         std::int64_t fallback, std::int64_t max) {
  return get_checked(args, name, fallback, 0, max);
}

std::int64_t get_checked(const util::Args& args, const char* name,
                         std::int64_t fallback, std::int64_t min,
                         std::int64_t max) {
  return checked(name, args.get_int(name, fallback), min, max);
}

double get_checked_double(const util::Args& args, const char* name,
                          double fallback, double min, double max) {
  const double value = args.get_double(name, fallback);
  // Negated so NaN fails too; infinities fail the finite bounds.
  if (!(value >= min && value <= max)) {
    std::ostringstream message;
    message << "--" << name << " must be in [" << min << ", " << max
            << "], got " << value;
    throw util::IoError(message.str());
  }
  return value;
}

core::RunOptions run_options_from_args(const util::Args& args,
                                       const core::RunOptions& defaults) {
  core::RunOptions options = defaults;
  if (const auto mode = args.get("mode")) {
    const auto parsed = core::parse_delivery_mode(*mode);
    if (!parsed) {
      throw util::IoError("--mode '" + *mode +
                          "' is not a delivery mode; accepted: sync, cycle");
    }
    options.mode = *parsed;
  }
  options.seed = static_cast<std::uint64_t>(get_checked(
      args, "seed", static_cast<std::int64_t>(defaults.seed), kMaxI64));
  options.max_rounds = static_cast<std::uint64_t>(
      get_checked(args, "max-rounds",
                  static_cast<std::int64_t>(defaults.max_rounds), kMaxI64));
  options.num_hosts = static_cast<sim::HostId>(get_checked(
      args, "hosts", static_cast<std::int64_t>(defaults.num_hosts),
      std::numeric_limits<sim::HostId>::max()));
  options.threads = static_cast<unsigned>(get_checked(
      args, "threads", static_cast<std::int64_t>(defaults.threads),
      kMaxThreads));
  if (const auto assignment = args.get("assignment")) {
    const auto parsed = core::parse_assignment_policy(*assignment);
    if (!parsed) {
      throw util::IoError("--assignment '" + *assignment +
                          "' is not an assignment policy; accepted: modulo, "
                          "block, random, hash");
    }
    options.assignment = *parsed;
  }
  if (const auto sched = args.get("sched")) {
    options.sched = parse_sched("sched", *sched);
  }
  if (const auto comm = args.get("comm")) {
    const auto parsed = core::parse_comm_policy(*comm);
    if (!parsed) {
      throw util::IoError("--comm '" + *comm +
                          "' is not a comm policy; accepted: broadcast, "
                          "point-to-point");
    }
    options.comm = *parsed;
  }
  options.faults.max_extra_delay = static_cast<std::uint32_t>(get_checked(
      args, "max-extra-delay",
      static_cast<std::int64_t>(defaults.faults.max_extra_delay),
      std::numeric_limits<std::uint32_t>::max()));
  options.faults.duplicate_probability =
      args.get_double("dup-prob", defaults.faults.duplicate_probability);
  if (args.has("no-targeted-send")) options.targeted_send = false;
  // Telemetry (obs/options.h). --trace itself is a tool-level flag (it
  // names an output file); the value-bearing obs knobs live here so
  // every binary shares them.
  if (args.has("metrics")) options.obs.metrics = true;
  options.obs.sample_period_ms =
      args.get_double("sample-period", defaults.obs.sample_period_ms);
  options.obs.trace_capacity = static_cast<std::uint32_t>(get_checked(
      args, "trace-capacity",
      static_cast<std::int64_t>(defaults.obs.trace_capacity),
      std::numeric_limits<std::uint32_t>::max()));
  return options;
}

void sweep_axes_from_args(const util::Args& args, PlanSpec& spec) {
  for (const auto& item : args.get_list("thread-counts")) {
    spec.threads.push_back(static_cast<unsigned>(checked(
        "thread-counts", util::parse_int("thread-counts", item), 0,
        kMaxThreads)));
  }
  for (const auto& item : args.get_list("scheds")) {
    spec.scheds.push_back(parse_sched("scheds", item));
  }
  for (const auto& item : args.get_list("seeds")) {
    spec.seeds.push_back(static_cast<std::uint64_t>(
        checked("seeds", util::parse_int("seeds", item), 0, kMaxI64)));
  }
}

const char* run_options_flag_help() {
  return R"(run options (shared by every protocol; unused knobs are ignored):
  --mode sync|cycle          delivery semantics of the SIMULATED protocols
                             (default: cycle); the *-par protocols always
                             execute barrier-synchronous real rounds, and
                             bsp-async has no rounds at all
  --seed S                   RNG seed (default: 1)
  --max-rounds N             hard round cap, 0 = automatic (default: 0)
  --hosts N                  hosts / BSP workers (default: 16)
  --threads N                worker threads for the *-par and bsp-async
                             protocols (default: 0 = one per hw thread)
  --sched lifo|bound         bsp-async dirty-vertex pop order (default:
                             lifo); bound pops the lowest current
                             estimate first (the peeling frontier)
  --assignment modulo|block|random|hash   node-to-host policy (default: modulo)
  --comm broadcast|point-to-point         one-to-many comm (default: point-to-point)
  --max-extra-delay D        fault plan: extra delivery delay in rounds
  --dup-prob P               fault plan: duplication probability in [0,1]
  --no-targeted-send         disable the paper's 3.1.2 optimization
  --metrics                  collect per-worker counters + latency
                             histograms (*-par / bsp-async runtimes only)
  --sample-period MS         background convergence sampler period in ms,
                             0 = off (default: 0)
  --trace-capacity N         per-worker trace ring capacity in events
                             (default: 16384; used with --trace))";
}

}  // namespace kcore::api
