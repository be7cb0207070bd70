#include <filesystem>
#include <fstream>
#include <string>

#include "eval/datasets.h"
#include "eval/experiments.h"
#include "util/env.h"

namespace kcore::eval {

ExperimentOptions ExperimentOptions::from_env() {
  ExperimentOptions options;
  options.scale = util::env_double("KCORE_SCALE", options.scale);
  options.runs = static_cast<int>(util::env_int("KCORE_RUNS", options.runs));
  options.base_seed = static_cast<std::uint64_t>(
      util::env_int("KCORE_SEED", static_cast<std::int64_t>(options.base_seed)));
  options.quick = util::env_bool("KCORE_QUICK", options.quick);
  // Settings are the user's to fix: refuse them by name, NaN included.
  if (!(options.scale > 0.0 && options.scale <= kMaxScale)) {
    throw util::IoError("KCORE_SCALE must be in (0, " +
                        std::to_string(static_cast<int>(kMaxScale)) +
                        "], got " + std::to_string(options.scale));
  }
  if (options.runs < 1) {
    throw util::IoError("KCORE_RUNS must be >= 1, got " +
                        std::to_string(options.runs));
  }
  if (options.quick) {
    options.runs = std::min(options.runs, 2);
    options.scale = std::min(options.scale, 0.05);
  }
  return options;
}

std::string write_results_file(const std::string& name,
                               const std::string& content) {
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::create_directories("results", ec);
  if (ec) return {};
  const std::string path = "results/" + name;
  std::ofstream out(path);
  if (!out.good()) return {};
  out << content;
  out.flush();
  return out.good() ? path : std::string{};
}

}  // namespace kcore::eval
