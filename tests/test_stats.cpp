#include "util/stats.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "util/rng.h"

namespace kcore::util {
namespace {

TEST(RunningStats, EmptyDefaults) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0U);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_TRUE(std::isnan(s.min()));
  EXPECT_TRUE(std::isnan(s.max()));
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(RunningStats, SingleValue) {
  RunningStats s;
  s.add(5.0);
  EXPECT_EQ(s.count(), 1U);
  EXPECT_EQ(s.mean(), 5.0);
  EXPECT_EQ(s.min(), 5.0);
  EXPECT_EQ(s.max(), 5.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(RunningStats, MatchesDirectComputation) {
  const std::vector<double> values{1.5, -2.0, 4.0, 0.0, 10.5, 3.25};
  RunningStats s;
  double sum = 0.0;
  for (const double v : values) {
    s.add(v);
    sum += v;
  }
  const double mean = sum / static_cast<double>(values.size());
  double m2 = 0.0;
  for (const double v : values) m2 += (v - mean) * (v - mean);
  const double var = m2 / static_cast<double>(values.size() - 1);
  EXPECT_NEAR(s.mean(), mean, 1e-12);
  EXPECT_NEAR(s.variance(), var, 1e-12);
  EXPECT_NEAR(s.stddev(), std::sqrt(var), 1e-12);
  EXPECT_EQ(s.min(), -2.0);
  EXPECT_EQ(s.max(), 10.5);
  EXPECT_NEAR(s.sum(), sum, 1e-12);
}

TEST(RunningStats, MergeEqualsSequential) {
  Xoshiro256 rng(1);
  RunningStats whole;
  RunningStats left;
  RunningStats right;
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.next_double() * 100 - 50;
    whole.add(v);
    (i < 400 ? left : right).add(v);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), whole.count());
  EXPECT_NEAR(left.mean(), whole.mean(), 1e-9);
  EXPECT_NEAR(left.variance(), whole.variance(), 1e-7);
  EXPECT_EQ(left.min(), whole.min());
  EXPECT_EQ(left.max(), whole.max());
}

TEST(RunningStats, MergeWithEmptySides) {
  RunningStats a;
  RunningStats b;
  b.add(3.0);
  b.add(7.0);
  a.merge(b);  // empty.merge(full)
  EXPECT_EQ(a.count(), 2U);
  EXPECT_EQ(a.mean(), 5.0);
  RunningStats c;
  a.merge(c);  // full.merge(empty)
  EXPECT_EQ(a.count(), 2U);
  EXPECT_EQ(a.mean(), 5.0);
}

TEST(SampleSummary, OddCountTakesTheMiddle) {
  const std::vector<double> values{9.0, 1.0, 4.0, 3.0, 8.0};
  const auto s = SampleSummary::of(values);
  EXPECT_EQ(s.count, 5U);
  EXPECT_EQ(s.min, 1.0);
  EXPECT_EQ(s.median, 4.0);
  EXPECT_EQ(s.max, 9.0);
  EXPECT_DOUBLE_EQ(s.mean, 5.0);
}

TEST(SampleSummary, EvenCountTakesTheLowerMiddle) {
  // Nearest rank: rank ceil(n/2), so 1..100 has median 50, not 50.5.
  std::vector<double> values;
  for (int i = 100; i >= 1; --i) values.push_back(i);
  const auto s = SampleSummary::of(values);
  EXPECT_EQ(s.count, 100U);
  EXPECT_EQ(s.min, 1.0);
  EXPECT_EQ(s.median, 50.0);
  EXPECT_EQ(s.max, 100.0);
  EXPECT_DOUBLE_EQ(s.mean, 50.5);
  const std::vector<double> pair{7.0, 2.0};
  EXPECT_EQ(SampleSummary::of(pair).median, 2.0);
}

TEST(SampleSummary, EmptyInputHasCountZeroAndNaNs) {
  const auto s = SampleSummary::of({});
  EXPECT_EQ(s.count, 0U);
  EXPECT_TRUE(std::isnan(s.min));
  EXPECT_TRUE(std::isnan(s.median));
  EXPECT_TRUE(std::isnan(s.max));
  EXPECT_TRUE(std::isnan(s.mean));
}

}  // namespace
}  // namespace kcore::util
