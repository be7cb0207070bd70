#include "util/stats.h"

#include <gtest/gtest.h>

#include <cmath>

#include "util/check.h"
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

TEST(Histogram, CountsAndClamping) {
  Histogram h(5);
  h.add(0);
  h.add(1);
  h.add(1);
  h.add(4);
  h.add(99);  // clamped into last bucket
  EXPECT_EQ(h.total(), 5U);
  EXPECT_EQ(h.bucket(0), 1U);
  EXPECT_EQ(h.bucket(1), 2U);
  EXPECT_EQ(h.bucket(2), 0U);
  EXPECT_EQ(h.bucket(4), 2U);
}

TEST(Histogram, Quantile) {
  Histogram h(10);
  for (std::size_t v = 0; v < 10; ++v) {
    for (std::size_t i = 0; i <= v; ++i) h.add(v);  // weight v+1 at v
  }
  EXPECT_EQ(h.quantile(1.0), 9U);
  EXPECT_LE(h.quantile(0.5), 7U);
  EXPECT_GE(h.quantile(0.5), 5U);
}

TEST(Histogram, QuantileValidation) {
  Histogram h(3);
  h.add(1);
  EXPECT_THROW((void)h.quantile(0.0), CheckError);
  EXPECT_THROW((void)h.quantile(1.5), CheckError);
}

TEST(Sample, PercentilesNearestRank) {
  Sample s;
  for (int i = 1; i <= 100; ++i) s.add(i);
  EXPECT_EQ(s.percentile(0), 1.0);
  EXPECT_EQ(s.percentile(50), 50.0);
  EXPECT_EQ(s.percentile(95), 95.0);
  EXPECT_EQ(s.percentile(100), 100.0);
  EXPECT_EQ(s.min(), 1.0);
  EXPECT_EQ(s.max(), 100.0);
  EXPECT_NEAR(s.mean(), 50.5, 1e-12);
}

TEST(Sample, EmptyThrows) {
  Sample s;
  EXPECT_THROW((void)s.percentile(50), CheckError);
  EXPECT_THROW((void)s.mean(), CheckError);
}

TEST(Sample, AddAfterPercentileStillCorrect) {
  Sample s;
  s.add(10);
  s.add(20);
  EXPECT_EQ(s.percentile(100), 20.0);
  s.add(5);
  EXPECT_EQ(s.min(), 5.0);
}

}  // namespace
}  // namespace kcore::util
