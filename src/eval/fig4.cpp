// Figure 4 runner: evolution of the estimate error over rounds.
//
// Left plot: average over all nodes and runs of (estimate - coreness).
// Right plot: maximum over all nodes and runs. The paper's headline
// observation — maximum error <= 1 by round ~22 on every dataset — is the
// shape check recorded in EXPERIMENTS.md.
#include <algorithm>
#include <ostream>
#include <sstream>
#include <thread>

#include "api/session.h"
#include "eval/experiments.h"
#include "obs/obs.h"
#include "seq/kcore_seq.h"
#include "util/json.h"
#include "util/table.h"

namespace kcore::eval {

std::vector<ErrorSeries> run_fig4(const ExperimentOptions& options) {
  std::vector<ErrorSeries> all_series;
  for (const DatasetSpec& spec : dataset_registry()) {
    const graph::Graph g = spec.build(options.scale, options.base_seed);
    const auto truth = seq::coreness_bz(g);

    ErrorSeries series;
    series.name = spec.name;
    std::vector<double> sum_error;   // per round, summed over runs & nodes
    std::vector<double> max_error;   // per round, max over runs & nodes
    double execution_total = 0.0;

    // One Plan over the run seeds; the per-round error accumulation hangs
    // off the Plan's observer factory, the convergence tally off the
    // per-report hook.
    api::PlanSpec plan_spec;
    plan_spec.protocols = {std::string(api::kProtocolOneToOne)};
    for (int run = 0; run < options.runs; ++run) {
      plan_spec.seeds.push_back(options.base_seed + 3000 +
                                static_cast<unsigned>(run));
    }
    api::Plan plan(g, plan_spec);
    (void)plan.run(
        [&](const api::PlanCell&, int /*repeat*/,
            const api::DecomposeReport& result) {
          execution_total +=
              static_cast<double>(result.traffic.execution_time);
        },
        [&](const api::PlanCell&, int /*repeat*/) {
          return api::ProgressObserver([&](const api::ProgressEvent& event) {
            const std::size_t idx = event.round - 1;
            if (idx >= sum_error.size()) {
              sum_error.resize(idx + 1, 0.0);
              max_error.resize(idx + 1, 0.0);
            }
            double sum = 0.0;
            double mx = 0.0;
            for (graph::NodeId u = 0; u < g.num_nodes(); ++u) {
              const auto err = static_cast<double>(event.estimates[u]) -
                               static_cast<double>(truth[u]);
              sum += err;
              mx = std::max(mx, err);
            }
            sum_error[idx] += sum;
            max_error[idx] = std::max(max_error[idx], mx);
          });
        });
    series.execution_time_avg = execution_total / options.runs;
    series.avg_error.reserve(sum_error.size());
    for (const double s : sum_error) {
      series.avg_error.push_back(
          s / (static_cast<double>(g.num_nodes()) * options.runs));
    }
    series.max_error = std::move(max_error);
    all_series.push_back(std::move(series));
  }
  return all_series;
}

namespace {

void print_error_table(std::span<const ErrorSeries> series, bool use_max,
                       std::ostream& os) {
  std::size_t horizon = 0;
  for (const auto& s : series) {
    horizon = std::max(horizon,
                       use_max ? s.max_error.size() : s.avg_error.size());
  }
  // Sample rounds on a coarse grid to keep the terminal table readable.
  std::vector<std::size_t> sampled;
  for (std::size_t r = 1; r <= horizon;
       r += (r < 32 ? 2 : (r < 128 ? 8 : 32))) {
    sampled.push_back(r);
  }
  std::vector<std::string> header{"round"};
  for (const auto& s : series) header.push_back(s.name);
  util::TableWriter table(header);
  for (const std::size_t r : sampled) {
    std::vector<std::string> cells{std::to_string(r)};
    for (const auto& s : series) {
      const auto& data = use_max ? s.max_error : s.avg_error;
      if (r - 1 < data.size()) {
        cells.push_back(util::fmt_double(data[r - 1], use_max ? 0 : 4));
      } else {
        cells.push_back("0");  // converged
      }
    }
    table.add_row(std::move(cells));
  }
  table.print(os);

  std::ostringstream csv;
  table.print_csv(csv);
  const auto path = write_results_file(
      use_max ? "fig4_max_error.csv" : "fig4_avg_error.csv", csv.str());
  if (!path.empty()) os << "[csv] " << path << "\n";
}

}  // namespace

std::vector<AsyncErrorSeries> run_fig4_async(const ExperimentOptions& options) {
  std::vector<AsyncErrorSeries> all;

  // One seeded run per profile. The period is a compromise: fine enough
  // to catch a handful of points on the small CI-scale profiles, coarse
  // enough that the sampler thread stays invisible next to the workers.
  const double period_ms = options.quick ? 0.2 : 0.1;
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  const unsigned threads = std::min(4u, hw);

  for (const DatasetSpec& spec : dataset_registry()) {
    const graph::Graph g = spec.build(options.scale, options.base_seed);
    const auto truth = seq::coreness_bz(g);
    double truth_sum = 0.0;
    for (const auto k : truth) truth_sum += static_cast<double>(k);

    api::RunOptions run_options;
    run_options.threads = threads;
    run_options.seed = options.base_seed + 77;
    run_options.obs.sample_period_ms = period_ms;
    const auto report =
        api::decompose(g, api::kProtocolBspAsync, run_options);

    AsyncErrorSeries series;
    series.name = spec.name;
    series.threads = threads;
    series.sample_period_ms = period_ms;
    series.truth_sum = truth_sum;
    series.run_ms = report.elapsed_ms;
    if (report.telemetry) {
      series.points.reserve(report.telemetry->samples.size());
      for (const obs::Sample& s : report.telemetry->samples) {
        series.points.push_back({s.t_ms, s.sum_estimates - truth_sum,
                                 s.outstanding, s.worklist_depth});
      }
    }
    all.push_back(std::move(series));
  }
  return all;
}

namespace {

std::string fig4_async_json(std::span<const AsyncErrorSeries> series) {
  std::ostringstream out;
  util::JsonWriter w(out, 2);
  w.begin_object();
  w.member("bench", "fig4_async_error");
  w.key("series").begin_array();
  for (const auto& s : series) {
    w.begin_object();
    w.member("dataset", s.name);
    w.member("threads", std::uint64_t{s.threads});
    w.member("sample_period_ms", s.sample_period_ms, 3);
    w.member("truth_sum", s.truth_sum, 1);
    w.member("run_ms", s.run_ms, 3);
    w.key("points").begin_array();
    for (const auto& p : s.points) {
      w.begin_object();
      w.member("t_ms", p.t_ms, 3);
      w.member("sum_error", p.sum_error, 1);
      w.member("outstanding", p.outstanding);
      w.member("worklist_depth", p.worklist_depth);
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return out.str();
}

}  // namespace

void print_fig4_async(std::span<const AsyncErrorSeries> series,
                      std::ostream& os) {
  util::TableWriter table({"profile", "threads", "samples", "run ms",
                           "first err", "last err", "monotone"});
  for (const auto& s : series) {
    const double first = s.points.empty() ? 0.0 : s.points.front().sum_error;
    const double last = s.points.empty() ? 0.0 : s.points.back().sum_error;
    bool monotone = true;
    for (std::size_t i = 1; i < s.points.size(); ++i) {
      if (s.points[i].sum_error > s.points[i - 1].sum_error) monotone = false;
    }
    table.add_row({s.name, std::to_string(s.threads),
                   std::to_string(s.points.size()),
                   util::fmt_double(s.run_ms, 2), util::fmt_double(first, 0),
                   util::fmt_double(last, 0),
                   s.points.empty() ? "-" : (monotone ? "yes" : "NO")});
  }
  table.print(os);
  os << "\nReading: sum(estimates) - sum(coreness) sampled while the "
        "chaotic\nrelaxation runs — Theorem 2 makes it a monotone "
        "non-increasing upper\nbound, the Fig. 4 error curve with time "
        "instead of rounds on the x axis.\nProfiles with 0 samples "
        "converged before the first sampler period.\n";
  const auto path =
      write_results_file("fig4_async_error.json", fig4_async_json(series));
  if (!path.empty()) os << "[json] " << path << "\n";
}

void print_fig4(std::span<const ErrorSeries> series, std::ostream& os) {
  os << "Figure 4 (left) — average estimate error per round\n";
  print_error_table(series, /*use_max=*/false, os);
  os << "\nFigure 4 (right) — maximum estimate error per round\n";
  print_error_table(series, /*use_max=*/true, os);
  os << "\nConvergence (execution time, avg rounds):\n";
  util::TableWriter t({"profile", "t_avg"});
  for (const auto& s : series) {
    t.add_row({s.name, util::fmt_double(s.execution_time_avg)});
  }
  t.print(os);
}

}  // namespace kcore::eval
