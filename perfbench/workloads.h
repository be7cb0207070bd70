// The benchmark's three workloads, shared by the input generator
// (gen.cpp) and the measured program (run.cpp). README.md says why each
// exists; this file holds only the numbers.
#pragma once

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

namespace perfbench {

enum class Kind : std::uint8_t {
  kStatic,  // repeated one-shot api::decompose
  kChurn,   // live::Service::apply over a generated update trace
};

// The graphs are built from this seed, not the run's: every run times the
// same graphs, so run-to-run spread is the machine's, not the profile
// generator's. The run's seed orders the graphs and drives the trace and
// the reader's nodes. `run.py --graph-seed` overrides it to check a claim
// on graphs no one tuned against.
inline constexpr std::uint64_t kGraphSeed = 1;

struct Workload {
  std::string_view name;
  Kind kind;
  std::string_view profile;  // eval::dataset_by_name key
  double scale;
  // Graphs in the input set. The static workload splits them over a
  // run's processes, so one run's median spans many draws of the profile.
  unsigned graphs = 1;
  // Set-ups and restarts timed in one run, split evenly over its
  // processes. A process's set-ups after its first ones are spread over
  // its timed loop (run.cpp, SetUpSpread); the static workload cycles
  // them over its slice of graphs.
  unsigned setup_reps = 16;
  unsigned recover_reps = 16;
  // Churn only.
  unsigned batch_size = 0;          // updates per Service::apply call
  double insert_share = 0.0;        // uniform traces: inserts / updates
  double same_batch_remove = 0.0;   // removes that undo an insert of the
                                    // same batch (net-effect coalescing)
  // > 0: this many edges of the profile graph are held out of the base
  // graph, and the trace is a run of excursions: each batch re-adds what
  // the batch before removed (the first: the held-out edges) and removes
  // as many again. The graph keeps its structure and the cost per batch
  // stays stationary; uniform inserts would fill it with random
  // long-range edges and double the batch cost within a run. The mix is
  // held_out inserts to batch_size - held_out removes; insert_share is
  // not read.
  // 0: inserts draw uniform endpoints (insert_share of the updates).
  unsigned held_out = 0;
  std::uint64_t trace_batches = 0;  // batches in each generated trace
  unsigned recovery_batches = 0;    // trace suffix replayed at recovery
  bool durable = false;             // WAL + checkpoints on MemStorage
  unsigned checkpoint_every = 0;
};

// The reader's fixed node set (generated from the seed, like the trace).
inline constexpr unsigned kReaderNodes = 64;

inline constexpr Workload kWorkloads[] = {
    {.name = "static-decompose", .kind = Kind::kStatic,
     .profile = "berkstan-like", .scale = 0.5, .graphs = 16,
     .setup_reps = 128, .recover_reps = 16},
    {.name = "churn-drip", .kind = Kind::kChurn, .profile = "amazon-like",
     .scale = 1.0, .setup_reps = 32, .recover_reps = 16, .batch_size = 1,
     .insert_share = 0.75, .trace_batches = 20000},
    {.name = "churn-burst", .kind = Kind::kChurn, .profile = "astroph-like",
     .scale = 1.0, .setup_reps = 64, .recover_reps = 16, .batch_size = 256,
     .same_batch_remove = 0.125, .held_out = 128, .trace_batches = 400,
     .recovery_batches = 4, .durable = true, .checkpoint_every = 16},
};

// One process's share of `total` set-ups or restarts when a run is split
// over `parts` processes (at least one).
inline unsigned per_process(unsigned total, unsigned parts) {
  return std::max(1U, (total + parts - 1) / parts);
}

inline const Workload& workload_by_name(std::string_view name) {
  for (const Workload& w : kWorkloads) {
    if (w.name == name) return w;
  }
  throw std::invalid_argument("unknown workload '" + std::string(name) +
                              "' (static-decompose, churn-drip, churn-burst)");
}

}  // namespace perfbench
