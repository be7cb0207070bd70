// Experiment runners regenerating every table and figure of §5, plus the
// §4.2 worst-case study and the ablations the bench/ablation_* binaries
// print.
//
// Each runner is a pure function of (options, seeds); bench/ binaries are
// thin wrappers that call a runner and print its rows (ASCII + CSV).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "api/api.h"
#include "eval/datasets.h"
#include "graph/graph.h"

namespace kcore::eval {

/// Global experiment knobs, overridable via environment:
///   KCORE_SCALE (double, default 1.0) — multiplies profile node counts;
///   KCORE_RUNS  (int, default 10)     — repetitions per data point
///                                       (paper: 50 for Table 1 / Fig 4,
///                                        20 for Fig 5);
///   KCORE_SEED  (int, default 42)     — base seed;
///   KCORE_QUICK (bool, default off)   — cut profiles/sweeps for smoke
///                                       runs in CI.
struct ExperimentOptions {
  double scale = 1.0;
  int runs = 10;
  std::uint64_t base_seed = 42;
  bool quick = false;

  [[nodiscard]] static ExperimentOptions from_env();
};

// ---------------------------------------------------------------------------
// Table 1 — one-to-one protocol on all nine profiles
// ---------------------------------------------------------------------------

struct Table1Row {
  std::string name;
  std::string paper_name;
  PaperStats paper;
  // left half: the synthetic graph's own statistics
  std::uint64_t nodes = 0;
  std::uint64_t edges = 0;
  std::uint32_t diameter_lb = 0;  // double-sweep lower bound
  std::uint32_t max_degree = 0;
  std::uint32_t k_max = 0;
  double k_avg = 0.0;
  // right half: one-to-one performance over `runs` seeds
  double t_avg = 0.0;
  std::uint64_t t_min = 0;
  std::uint64_t t_max = 0;
  double m_avg = 0.0;  // mean over runs of (messages / node)
  double m_max = 0.0;  // mean over runs of max messages by one node
};

[[nodiscard]] std::vector<Table1Row> run_table1(
    const ExperimentOptions& options);
void print_table1(std::span<const Table1Row> rows, std::ostream& os);

// ---------------------------------------------------------------------------
// Table 2 — per-core convergence lag on the berkstan-like profile
// ---------------------------------------------------------------------------

struct Table2Result {
  std::string dataset;
  std::vector<std::uint64_t> checkpoints;  // rounds sampled
  struct ShellRow {
    graph::NodeId k = 0;        // coreness value
    std::size_t size = 0;       // shell cardinality
    std::vector<double> wrong;  // fraction wrong at each checkpoint
  };
  /// Shells still erroneous at the first checkpoint, ordered by k;
  /// everything else has converged by then (the paper's "All other
  /// coreness are correctly computed at round 25").
  std::vector<ShellRow> rows;
  double execution_time_avg = 0.0;
};

[[nodiscard]] Table2Result run_table2(const std::string& profile,
                                      const ExperimentOptions& options);
void print_table2(const Table2Result& result, std::ostream& os);

// ---------------------------------------------------------------------------
// Figure 4 — error evolution over rounds (left: average, right: maximum)
// ---------------------------------------------------------------------------

struct ErrorSeries {
  std::string name;
  /// avg_error[r-1] = mean over runs and nodes of (estimate - coreness)
  /// at round r; zero-padded after each run converges.
  std::vector<double> avg_error;
  /// max_error[r-1] = max over runs and nodes at round r.
  std::vector<double> max_error;
  double execution_time_avg = 0.0;
};

[[nodiscard]] std::vector<ErrorSeries> run_fig4(
    const ExperimentOptions& options);
void print_fig4(std::span<const ErrorSeries> series, std::ostream& os);

// ---------------------------------------------------------------------------
// Figure 4, asynchronous edition — error vs TIME via the obs sampler
// ---------------------------------------------------------------------------
//
// bsp-async has no rounds, so the round-observer series above cannot be
// produced for it. Instead the telemetry sampler (RunOptions::obs.
// sample_period_ms) snapshots the engine's shared estimate table while
// it runs: by Theorem 2 every estimate is a non-increasing upper bound
// on the coreness, so sum(estimates) - sum(coreness) is a monotone
// non-increasing error proxy — the Fig. 4 curve with wall-clock time on
// the x axis. One series per dataset_registry() profile.

struct AsyncErrorPoint {
  double t_ms = 0.0;        // since the sampler started
  double sum_error = 0.0;   // sum(estimates) - sum(coreness), >= 0
  std::int64_t outstanding = 0;
  std::uint64_t worklist_depth = 0;
};

struct AsyncErrorSeries {
  std::string name;
  unsigned threads = 0;
  double sample_period_ms = 0.0;
  double truth_sum = 0.0;  // sum of the exact coreness values
  double run_ms = 0.0;     // whole-run wall clock
  /// Empty when the run finished before the first sampler tick — the
  /// curve converged faster than one period, which is itself a result.
  std::vector<AsyncErrorPoint> points;
};

[[nodiscard]] std::vector<AsyncErrorSeries> run_fig4_async(
    const ExperimentOptions& options);
void print_fig4_async(std::span<const AsyncErrorSeries> series,
                      std::ostream& os);

// ---------------------------------------------------------------------------
// Figure 5 — one-to-many overhead per node vs number of hosts
// ---------------------------------------------------------------------------

struct Fig5Point {
  std::string dataset;
  std::uint32_t hosts = 0;
  double overhead_broadcast = 0.0;  // avg over runs
  double overhead_broadcast_max = 0.0;
  double overhead_p2p = 0.0;
  double overhead_p2p_max = 0.0;
};

[[nodiscard]] std::vector<Fig5Point> run_fig5(
    const ExperimentOptions& options,
    std::span<const std::string> profiles,
    std::span<const std::uint32_t> host_counts);
void print_fig5(std::span<const Fig5Point> points, std::ostream& os);

// ---------------------------------------------------------------------------
// §4.2 — worst-case construction and bound checks
// ---------------------------------------------------------------------------

struct WorstCaseRow {
  graph::NodeId n = 0;
  std::uint64_t rounds_worst_case = 0;  // montresor graph, synchronous
  std::uint64_t expected_worst = 0;     // n - 1
  std::uint64_t rounds_chain = 0;       // chain graph, synchronous
  std::uint64_t expected_chain = 0;     // ceil(n / 2)
  std::uint32_t worst_diameter = 0;     // stays 3 regardless of n
  std::uint64_t theorem5_bound = 0;
  std::uint64_t corollary1_bound = 0;
};

[[nodiscard]] std::vector<WorstCaseRow> run_worstcase(
    std::span<const graph::NodeId> sizes);
void print_worstcase(std::span<const WorstCaseRow> rows, std::ostream& os);

// ---------------------------------------------------------------------------
// CSV export
// ---------------------------------------------------------------------------

/// Write `content` to results/<name> (directory created on demand);
/// returns the path written, or an empty string on failure (non-fatal:
/// benches still print to stdout).
std::string write_results_file(const std::string& name,
                               const std::string& content);

}  // namespace kcore::eval
