// Regenerates Table 1: per-dataset graph statistics and one-to-one
// protocol performance (t_avg/t_min/t_max over seeded runs, m_avg/m_max).
//
// Environment: KCORE_SCALE, KCORE_RUNS, KCORE_SEED, KCORE_QUICK.
#include <iostream>

#include "bench_main.h"
#include "eval/experiments.h"

static int bench_main() {
  using namespace kcore::eval;
  const auto options = ExperimentOptions::from_env();
  std::cout << "== bench: Table 1 (one-to-one) ==\n"
            << "scale=" << options.scale << " runs=" << options.runs
            << " seed=" << options.base_seed << "\n\n";
  const auto rows = run_table1(options);
  print_table1(rows, std::cout);
  std::cout << "\nShape checks vs paper:\n"
            << "  * berkstan-like and roadnet-like are the slowest profiles\n"
            << "  * all other profiles converge in tens of rounds\n"
            << "  * m_avg tracks the average degree\n";
  return 0;
}

int main() { return kcore::bench::run_main(bench_main); }
