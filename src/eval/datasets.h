// Synthetic stand-ins for the paper's nine SNAP datasets.
//
// The SNAP files are not available offline, so each dataset is replaced by
// a generator tuned to reproduce the structural character that drives the
// paper's results (degree-distribution shape, coreness profile, diameter
// regime) at a tractable scale. The mapping and its rationale live in the
// per-profile comments in eval/datasets.cpp; the paper's measured numbers
// are embedded here so every bench binary can print paper-vs-ours side
// by side.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "graph/graph.h"

namespace kcore::eval {

/// The row the paper reports for this dataset (Table 1).
struct PaperStats {
  std::uint64_t nodes = 0;
  std::uint64_t edges = 0;
  std::uint32_t diameter = 0;
  std::uint32_t max_degree = 0;
  std::uint32_t k_max = 0;
  double k_avg = 0.0;
  double t_avg = 0.0;
  std::uint32_t t_min = 0;
  std::uint32_t t_max = 0;
  double m_avg = 0.0;
  double m_max = 0.0;
};

struct DatasetSpec {
  std::string name;        // our profile name, e.g. "astroph-like"
  std::string paper_name;  // the SNAP dataset it substitutes
  PaperStats paper;
  /// Build the synthetic graph. `scale` multiplies node counts (1.0 =
  /// default laptop scale, documented per profile); `seed` controls all
  /// randomness.
  std::function<graph::Graph(double scale, std::uint64_t seed)> build;
};

/// All nine profiles, in the paper's Table 1 order.
[[nodiscard]] const std::vector<DatasetSpec>& dataset_registry();

/// Lookup by profile name; throws util::CheckError if unknown.
[[nodiscard]] const DatasetSpec& dataset_by_name(std::string_view name);

}  // namespace kcore::eval
