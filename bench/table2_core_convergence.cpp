// Regenerates Table 2: per-k-shell convergence lag on the berkstan-like
// profile (the web-BerkStan stand-in), showing how the deep 1-shell keeps
// lagging after the dense high cores have converged.
#include <iostream>

#include "bench_main.h"
#include "eval/experiments.h"

static int bench_main() {
  using namespace kcore::eval;
  const auto options = ExperimentOptions::from_env();
  std::cout << "== bench: Table 2 (per-core convergence, berkstan-like) ==\n"
            << "scale=" << options.scale << " runs=" << options.runs << "\n\n";
  const auto result = run_table2("berkstan-like", options);
  print_table2(result, std::cout);
  std::cout << "\nShape check vs paper: the dense planted core converges "
               "well before the\nshallow shells fed by long tendrils; the "
               "1-shell is the last to finish.\n";
  return 0;
}

int main() { return kcore::bench::run_main(bench_main); }
