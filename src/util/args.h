// Minimal command-line argument parser for the tools/ binaries.
//
// Supports subcommand-style CLIs: positional arguments plus --key=value /
// --key value options and --flag switches. No external dependencies; the
// grammar is intentionally tiny but the error messages are real: every
// malformed input throws util::IoError, whose message a CLI prints as is.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace kcore::util {

class Args {
 public:
  /// Parse argv[1..); throws IoError on malformed input ("--=x").
  Args(int argc, const char* const* argv);

  /// Construct from a plain vector (tests).
  explicit Args(std::vector<std::string> tokens);

  /// Positional arguments in order (everything not starting with "--").
  [[nodiscard]] const std::vector<std::string>& positional() const noexcept {
    return positional_;
  }

  /// True if --name was given (with or without a value) — the accessor
  /// for bare flags.
  [[nodiscard]] bool has(const std::string& name) const;

  /// Value of --name; nullopt if absent. Throws IoError when --name was
  /// given without a value: an option that needs one must not silently
  /// fall back to its default.
  [[nodiscard]] std::optional<std::string> get(const std::string& name) const;

  /// Typed getters with defaults; throw IoError when present but
  /// valueless or unparsable (silently ignoring a typo would corrupt an
  /// experiment).
  [[nodiscard]] std::string get_string(const std::string& name,
                                       const std::string& fallback) const;
  [[nodiscard]] std::int64_t get_int(const std::string& name,
                                     std::int64_t fallback) const;
  [[nodiscard]] double get_double(const std::string& name,
                                  double fallback) const;

  /// Items of the comma list --name ("1,2,4"; empty items are dropped);
  /// empty when absent. Throws IoError when present but valueless.
  [[nodiscard]] std::vector<std::string> get_list(
      const std::string& name) const;

  /// Option names that were provided but never queried — surfacing typos.
  /// Call after all get()/has() uses.
  [[nodiscard]] std::vector<std::string> unused() const;

 private:
  void parse(const std::vector<std::string>& tokens);

  std::vector<std::string> positional_;
  std::map<std::string, std::optional<std::string>> options_;
  mutable std::map<std::string, bool> queried_;
};

/// `text`, the value (or one list item) of option --name, as an integer;
/// throws IoError naming the option when the whole of `text` is not
/// one.
[[nodiscard]] std::int64_t parse_int(const std::string& name,
                                     const std::string& text);

}  // namespace kcore::util
