// Streaming statistics accumulators used by the experiment harness.
#pragma once

#include <cmath>
#include <cstddef>
#include <limits>
#include <span>

namespace kcore::util {

/// min / median / max / mean over a small batch of observations — the
/// shared aggregation behind `kcore decompose --repeat`, `kcore sweep`
/// and api::Plan cells. Medians use nearest-rank on a sorted copy; an
/// empty batch yields count == 0 and NaN summaries.
struct SampleSummary {
  std::size_t count = 0;
  double min = std::numeric_limits<double>::quiet_NaN();
  double median = std::numeric_limits<double>::quiet_NaN();
  double max = std::numeric_limits<double>::quiet_NaN();
  double mean = std::numeric_limits<double>::quiet_NaN();

  [[nodiscard]] static SampleSummary of(std::span<const double> values);
};

/// Welford-style single-pass accumulator: count, mean, variance, min, max.
/// Numerically stable; O(1) per observation.
class RunningStats {
 public:
  void add(double x) noexcept {
    ++count_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (x - mean_);
    if (x < min_) min_ = x;
    if (x > max_) max_ = x;
  }

  /// Merge another accumulator (parallel Welford combination).
  void merge(const RunningStats& other) noexcept {
    if (other.count_ == 0) return;
    if (count_ == 0) {
      *this = other;
      return;
    }
    const auto na = static_cast<double>(count_);
    const auto nb = static_cast<double>(other.count_);
    const double delta = other.mean_ - mean_;
    const double total = na + nb;
    mean_ += delta * nb / total;
    m2_ += other.m2_ + delta * delta * na * nb / total;
    count_ += other.count_;
    if (other.min_ < min_) min_ = other.min_;
    if (other.max_ > max_) max_ = other.max_;
  }

  [[nodiscard]] std::size_t count() const noexcept { return count_; }
  [[nodiscard]] double mean() const noexcept { return count_ ? mean_ : 0.0; }
  [[nodiscard]] double min() const noexcept {
    return count_ ? min_ : std::numeric_limits<double>::quiet_NaN();
  }
  [[nodiscard]] double max() const noexcept {
    return count_ ? max_ : std::numeric_limits<double>::quiet_NaN();
  }
  /// Sample variance (n-1 denominator); 0 for fewer than two observations.
  [[nodiscard]] double variance() const noexcept {
    return count_ > 1 ? m2_ / static_cast<double>(count_ - 1) : 0.0;
  }
  [[nodiscard]] double stddev() const noexcept { return std::sqrt(variance()); }
  [[nodiscard]] double sum() const noexcept {
    return mean_ * static_cast<double>(count_);
  }

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

}  // namespace kcore::util
