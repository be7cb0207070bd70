// Regenerates Figure 4: evolution of the average (left) and maximum
// (right) estimate error over rounds, for all nine dataset profiles.
#include <iostream>

#include "bench_main.h"
#include "eval/experiments.h"

static int bench_main() {
  using namespace kcore::eval;
  const auto options = ExperimentOptions::from_env();
  std::cout << "== bench: Figure 4 (error evolution) ==\n"
            << "scale=" << options.scale << " runs=" << options.runs << "\n\n";
  const auto series = run_fig4(options);
  print_fig4(series, std::cout);

  // The paper's headline: maximum error <= 1 within ~22 rounds everywhere.
  std::size_t round_where_max_le_1 = 0;
  for (const auto& s : series) {
    std::size_t r = s.max_error.size();
    while (r > 0 && s.max_error[r - 1] <= 1.0) --r;
    round_where_max_le_1 = std::max(round_where_max_le_1, r + 1);
  }
  std::cout << "\nShape check vs paper: max error <= 1 on every profile from "
               "round "
            << round_where_max_le_1 << " on (paper: ~22).\n";

  // The asynchronous counterpart: bsp-async has no rounds to observe, so
  // the error curve comes from the obs sampler (error vs wall-clock
  // time).
  std::cout << "\n== Figure 4, async edition (error vs time, obs sampler) =="
            << "\n\n";
  const auto async_series = run_fig4_async(options);
  print_fig4_async(async_series, std::cout);
  return 0;
}

int main() { return kcore::bench::run_main(bench_main); }
