// Beyond the paper: sensitivity of the protocol to channel asynchrony.
// The paper assumes reliable synchronous-ish rounds; because updates are
// idempotent min-merges, bounded delays and duplicates should only stretch
// the schedule, never corrupt the result. This bench quantifies the
// slowdown and the traffic inflation.
#include <array>
#include <iostream>

#include "api/api.h"
#include "bench_main.h"
#include "eval/datasets.h"
#include "eval/experiments.h"
#include "seq/kcore_seq.h"
#include "util/stats.h"
#include "util/table.h"

static int bench_main() {
  using namespace kcore::eval;
  const auto options = ExperimentOptions::from_env();
  std::cout << "== bench: ablation — channel faults (delay / duplication) "
               "==\n"
            << "scale=" << options.scale << " runs=" << options.runs << "\n\n";

  struct Plan {
    const char* name;
    std::uint32_t delay;
    double dup;
  };
  const std::array<Plan, 4> plans{Plan{"clean", 0, 0.0},
                                  Plan{"delay<=2", 2, 0.0},
                                  Plan{"dup 20%", 0, 0.2},
                                  Plan{"delay<=2 + dup 20%", 2, 0.2}};

  std::vector<std::string> profiles{"gnutella-like", "slashdot-like",
                                    "amazon-like"};
  if (options.quick) profiles = {"gnutella-like"};

  kcore::util::TableWriter table(
      {"profile", "plan", "rounds", "messages", "exact"});
  for (const auto& name : profiles) {
    const auto& spec = dataset_by_name(name);
    const auto g = spec.build(options.scale, options.base_seed);
    const auto truth = kcore::seq::coreness_bz(g);
    for (const auto& plan : plans) {
      kcore::util::RunningStats rounds;
      kcore::util::RunningStats msgs;
      bool all_exact = true;
      for (int run = 0; run < options.runs; ++run) {
        kcore::api::RunOptions run_options;
        run_options.seed = options.base_seed + 300 + static_cast<unsigned>(run);
        run_options.faults.max_extra_delay = plan.delay;
        run_options.faults.duplicate_probability = plan.dup;
        const auto result = kcore::api::decompose(
            g, kcore::api::kProtocolOneToOne, run_options);
        all_exact &= result.traffic.converged && result.coreness == truth;
        rounds.add(static_cast<double>(result.traffic.rounds_executed));
        msgs.add(static_cast<double>(result.traffic.total_messages));
      }
      table.add_row({name, plan.name,
                     kcore::util::fmt_double(rounds.mean(), 1),
                     kcore::util::fmt_double(msgs.mean(), 0),
                     all_exact ? "yes" : "NO"});
    }
  }
  table.print(std::cout);
  std::cout << "\nReading: the \"exact\" column must always be yes — faults "
               "cost rounds and\nmessages, never correctness (safety is "
               "timing-independent, Theorem 2).\n";
  return 0;
}

int main() { return kcore::bench::run_main(bench_main); }
