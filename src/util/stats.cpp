#include "util/stats.h"

#include <algorithm>
#include <vector>

namespace kcore::util {

SampleSummary SampleSummary::of(std::span<const double> values) {
  SampleSummary summary;
  summary.count = values.size();
  if (values.empty()) return summary;
  std::vector<double> sorted(values.begin(), values.end());
  std::sort(sorted.begin(), sorted.end());
  summary.min = sorted.front();
  summary.max = sorted.back();
  // Nearest-rank median: the lower middle of an even count.
  summary.median = sorted[(sorted.size() + 1) / 2 - 1];
  double sum = 0.0;
  for (const double v : sorted) sum += v;
  summary.mean = sum / static_cast<double>(sorted.size());
  return summary;
}

}  // namespace kcore::util
