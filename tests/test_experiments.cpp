// Smoke/integration tests for the experiment runners at tiny scale: every
// bench code path executes end-to-end and its outputs satisfy structural
// invariants (the full-scale numbers are produced by bench/).
#include "eval/experiments.h"

#include <gtest/gtest.h>

#include <array>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "eval/datasets.h"
#include "seq/kcore_seq.h"

namespace kcore::eval {
namespace {

ExperimentOptions tiny_options() {
  ExperimentOptions options;
  options.scale = 0.02;
  options.runs = 2;
  options.base_seed = 5;
  return options;
}

TEST(Options, FromEnvDefaults) {
  ::unsetenv("KCORE_SCALE");
  ::unsetenv("KCORE_RUNS");
  ::unsetenv("KCORE_SEED");
  ::unsetenv("KCORE_QUICK");
  const auto options = ExperimentOptions::from_env();
  EXPECT_EQ(options.scale, 1.0);
  EXPECT_EQ(options.runs, 10);
  EXPECT_EQ(options.base_seed, 42U);
  EXPECT_FALSE(options.quick);
}

TEST(Options, QuickModeCapsEffort) {
  ::setenv("KCORE_QUICK", "1", 1);
  const auto options = ExperimentOptions::from_env();
  ::unsetenv("KCORE_QUICK");
  EXPECT_LE(options.runs, 2);
  EXPECT_LE(options.scale, 0.05);
}

TEST(Table1, ProducesAllRowsWithSaneStats) {
  const auto rows = run_table1(tiny_options());
  ASSERT_EQ(rows.size(), 9U);
  for (const auto& row : rows) {
    EXPECT_GT(row.nodes, 0U) << row.name;
    EXPECT_GT(row.edges, 0U) << row.name;
    EXPECT_GE(row.t_avg, 1.0) << row.name;
    EXPECT_LE(row.t_min, static_cast<std::uint64_t>(row.t_avg) + 1)
        << row.name;
    EXPECT_GE(row.t_max + 1, static_cast<std::uint64_t>(row.t_avg))
        << row.name;
    EXPECT_GT(row.m_avg, 0.0) << row.name;
    EXPECT_GE(row.m_max, row.m_avg) << row.name;
    EXPECT_GE(row.k_max, 1U) << row.name;
    EXPECT_GT(row.k_avg, 0.0) << row.name;
  }
  std::ostringstream os;
  print_table1(rows, os);
  EXPECT_NE(os.str().find("Table 1"), std::string::npos);
  EXPECT_NE(os.str().find("CA-AstroPh"), std::string::npos);
}

TEST(Table2, ChecksStructure) {
  const auto result = run_table2("berkstan-like", tiny_options());
  EXPECT_EQ(result.checkpoints.size(), 12U);
  // Checkpoints strictly increasing.
  for (std::size_t i = 1; i < result.checkpoints.size(); ++i) {
    EXPECT_LT(result.checkpoints[i - 1], result.checkpoints[i]);
  }
  EXPECT_GT(result.execution_time_avg, 0.0);
  for (const auto& row : result.rows) {
    EXPECT_GT(row.size, 0U);
    ASSERT_EQ(row.wrong.size(), result.checkpoints.size());
    // First checkpoint is the most erroneous by construction of rows.
    EXPECT_GT(row.wrong.front(), 0.0);
    for (const double w : row.wrong) {
      EXPECT_GE(w, 0.0);
      EXPECT_LE(w, 1.0);
    }
  }
  std::ostringstream os;
  print_table2(result, os);
  EXPECT_NE(os.str().find("Table 2"), std::string::npos);
}

TEST(Fig4, ErrorSeriesDecayToZero) {
  const auto series = run_fig4(tiny_options());
  ASSERT_EQ(series.size(), 9U);
  for (const auto& s : series) {
    ASSERT_FALSE(s.avg_error.empty()) << s.name;
    ASSERT_EQ(s.avg_error.size(), s.max_error.size()) << s.name;
    // Round-1 error equals the average initial error (degree - coreness),
    // which is strictly positive on all our profiles.
    EXPECT_GT(s.avg_error.front(), 0.0) << s.name;
    // Converged: final error is zero.
    EXPECT_EQ(s.avg_error.back(), 0.0) << s.name;
    EXPECT_EQ(s.max_error.back(), 0.0) << s.name;
    // avg <= max pointwise.
    for (std::size_t r = 0; r < s.avg_error.size(); ++r) {
      EXPECT_LE(s.avg_error[r], s.max_error[r] + 1e-12) << s.name;
    }
  }
  std::ostringstream os;
  print_fig4(series, os);
  EXPECT_NE(os.str().find("Figure 4"), std::string::npos);
}

TEST(Fig4Async, SamplerSeriesAreMonotoneErrorCurves) {
  const auto options = tiny_options();
  const auto series = run_fig4_async(options);
  const auto& profiles = dataset_registry();
  ASSERT_EQ(series.size(), profiles.size());
  for (std::size_t i = 0; i < series.size(); ++i) {
    const auto& s = series[i];
    EXPECT_EQ(s.name, profiles[i].name);
    const auto truth =
        seq::coreness_bz(profiles[i].build(options.scale, options.base_seed));
    double truth_sum = 0.0;
    for (const auto k : truth) truth_sum += static_cast<double>(k);
    EXPECT_EQ(s.truth_sum, truth_sum) << s.name;
    // A run may beat the first sampler period: an empty curve is legal.
    // Estimates are non-increasing upper bounds (Theorem 2), so every
    // sampled error is >= 0 and never grows.
    for (std::size_t p = 0; p < s.points.size(); ++p) {
      EXPECT_GE(s.points[p].sum_error, 0.0) << s.name << " point " << p;
      if (p == 0) continue;
      EXPECT_GE(s.points[p].t_ms, s.points[p - 1].t_ms) << s.name;
      EXPECT_LE(s.points[p].sum_error, s.points[p - 1].sum_error) << s.name;
    }
  }
  std::ostringstream os;
  print_fig4_async(series, os);
  EXPECT_NE(os.str().find(series.front().name), std::string::npos);
}

TEST(Fig5, OverheadInvariants) {
  const auto options = tiny_options();
  const std::array<std::string, 2> profiles{"gnutella-like",
                                            "astroph-like"};
  const std::array<std::uint32_t, 3> hosts{2, 8, 32};
  const auto points = run_fig5(options, profiles, hosts);
  ASSERT_EQ(points.size(), profiles.size() * hosts.size());
  for (const auto& p : points) {
    EXPECT_GT(p.overhead_broadcast, 0.0) << p.dataset << "/" << p.hosts;
    EXPECT_GT(p.overhead_p2p, 0.0);
    EXPECT_GE(p.overhead_broadcast_max, p.overhead_broadcast);
    EXPECT_GE(p.overhead_p2p_max, p.overhead_p2p);
    // Figure 5's headline separation: with many hosts, point-to-point
    // fan-out dominates while broadcast stays flat. (At 2 hosts the two
    // metrics coincide modulo nodes without cross-host neighbors, so the
    // comparison is only meaningful at the top of the sweep.)
    if (p.hosts >= 32) {
      EXPECT_LE(p.overhead_broadcast, p.overhead_p2p + 1e-9)
          << p.dataset << "/" << p.hosts;
    }
  }
  std::ostringstream os;
  print_fig5(points, os);
  EXPECT_NE(os.str().find("Figure 5"), std::string::npos);
}

TEST(WorstCase, RowsMatchTheory) {
  const std::array<graph::NodeId, 3> sizes{8, 16, 32};
  const auto rows = run_worstcase(sizes);
  ASSERT_EQ(rows.size(), 3U);
  for (const auto& row : rows) {
    EXPECT_EQ(row.rounds_worst_case, row.expected_worst) << "n=" << row.n;
    EXPECT_EQ(row.rounds_chain, row.expected_chain) << "n=" << row.n;
    EXPECT_EQ(row.worst_diameter, 3U);
    EXPECT_LE(row.rounds_worst_case, row.theorem5_bound);
    EXPECT_LE(row.rounds_worst_case, row.corollary1_bound);
  }
  std::ostringstream os;
  print_worstcase(rows, os);
  EXPECT_NE(os.str().find("worst-case"), std::string::npos);
}

TEST(ResultsFile, WritesUnderResultsDir) {
  const auto path = write_results_file("unit_test_artifact.txt", "hello\n");
  ASSERT_FALSE(path.empty());
  std::ifstream in(path);
  std::string content;
  std::getline(in, content);
  EXPECT_EQ(content, "hello");
}

}  // namespace
}  // namespace kcore::eval
