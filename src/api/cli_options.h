// Shared command-line surface for core::RunOptions.
//
// Every binary that drives a decomposition (tools/kcore_cli, benches,
// examples) accepts the same flag vocabulary; this parser is the single
// place that maps flags onto the shared option struct, so a new knob
// lands everywhere at once:
//
//   --mode sync|cycle          delivery semantics (sim::DeliveryMode)
//   --seed S                   RNG seed
//   --max-rounds N             hard round cap (0 = automatic bound)
//   --hosts N                  hosts (one-to-many) / workers (bsp)
//   --threads N                worker threads (one-to-many-par, bsp-par,
//                              bsp-async); 0 = one per hardware thread
//   --sched lifo|bound         bsp-async scheduling policy (pop order of
//                              the dirty-vertex priority pool)
//   --assignment modulo|block|random|hash   node-to-host policy (§3.2.2)
//   --comm broadcast|point-to-point         one-to-many policy (§3.2.1)
//   --max-extra-delay D        fault plan: extra delivery delay in rounds
//   --dup-prob P               fault plan: duplication probability
//   --no-targeted-send         disable the §3.1.2 optimization
//   --metrics                  per-worker counter/histogram registry (obs)
//   --sample-period MS         convergence sampler period, 0 = off
//   --trace-capacity N         per-worker trace ring capacity (events)
//
// The sweep axes (--thread-counts, --scheds, --seeds) are comma lists
// whose items are checked exactly like --threads, --sched and --seed.
#pragma once

#include <cstdint>

#include "api/session.h"
#include "core/run_options.h"
#include "util/args.h"

namespace kcore::api {

/// Parse the RunOptions flags out of `args`, starting from `defaults`.
/// Throws util::CheckError with an actionable message on an unparsable
/// value (listing the accepted names for enum flags).
[[nodiscard]] core::RunOptions run_options_from_args(
    const util::Args& args, const core::RunOptions& defaults = {});

/// The integer flag `name` (`fallback` when absent), checked to lie in
/// [0, max] before the caller's unsigned cast. Throws util::CheckError
/// naming the flag, so `--checkpoint-every -1` fails instead of wrapping.
[[nodiscard]] std::int64_t get_checked(const util::Args& args,
                                       const char* name, std::int64_t fallback,
                                       std::int64_t max);

/// Append the sweep axes given in `args` (--thread-counts, --scheds,
/// --seeds) to `spec`. Throws util::CheckError naming the flag on an
/// item that --threads, --sched or --seed would reject.
void sweep_axes_from_args(const util::Args& args, PlanSpec& spec);

/// The flag reference above, formatted for usage() blocks.
[[nodiscard]] const char* run_options_flag_help();

}  // namespace kcore::api
