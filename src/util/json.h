// Minimal escaping-correct JSON writer.
//
// One streaming writer class shared by every JSON emitter in the repo —
// the Chrome-trace exporter (obs/trace.cpp), `kcore --json`, and the
// bench result files (BENCH_kernel.json, BENCH_stream.json, fig4) —
// replacing the hand-rolled string concatenation each of them used to
// carry. The writer owns the three things hand-rolled emitters get
// wrong: string escaping (control characters, quotes, backslashes),
// comma placement, and non-finite doubles (JSON has no NaN/Inf — they
// are emitted as null).
//
// Usage:
//   util::JsonWriter w(os);
//   w.begin_object();
//   w.member("name", dataset);             // key + escaped string value
//   w.member("wall_ms", wall, 3);          // fixed precision double
//   w.key("threads").value(std::uint64_t{8});
//   w.key("samples").begin_array();
//   for (double s : samples) w.value(s);
//   w.end_array();
//   w.end_object();                        // emits a trailing '\n'
//
// The writer validates nesting depth and balanced begin/end via
// KCORE_CHECK — misuse is a programming error, not a runtime condition.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>

namespace kcore::util {

/// Escape `s` for inclusion inside a JSON string literal (no surrounding
/// quotes). Handles \" \\ \b \f \n \r \t and all other control
/// characters (< 0x20) as \u00XX; everything else passes through
/// byte-for-byte (UTF-8 stays valid UTF-8).
[[nodiscard]] std::string json_escape(std::string_view s);

/// Streaming JSON writer with automatic comma placement.
class JsonWriter {
 public:
  /// `indent` > 0 pretty-prints with that many spaces per level;
  /// 0 (default) emits compact single-line JSON.
  explicit JsonWriter(std::ostream& os, int indent = 0);

  JsonWriter(const JsonWriter&) = delete;
  JsonWriter& operator=(const JsonWriter&) = delete;

  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();

  /// Object key; must be followed by exactly one value (or begin_*).
  JsonWriter& key(std::string_view k);

  JsonWriter& value(std::string_view v);
  JsonWriter& value(const char* v) { return value(std::string_view(v)); }
  JsonWriter& value(bool v);
  JsonWriter& value(std::uint64_t v);
  JsonWriter& value(std::int64_t v);
  JsonWriter& value(std::uint32_t v) { return value(std::uint64_t{v}); }
  JsonWriter& value(std::int32_t v) { return value(std::int64_t{v}); }
  /// Doubles: `digits` < 0 uses shortest round-trip formatting;
  /// `digits` >= 0 fixed decimals. Non-finite values become null.
  JsonWriter& value(double v, int digits = -1);
  JsonWriter& null();

  /// key + value in one call.
  template <typename T>
  JsonWriter& member(std::string_view k, const T& v) {
    return key(k).value(v);
  }
  JsonWriter& member(std::string_view k, double v, int digits) {
    return key(k).value(v, digits);
  }

  /// True once the top-level value is complete (balanced begin/end).
  [[nodiscard]] bool complete() const { return depth_ == 0 && wrote_any_; }

 private:
  enum class Scope : std::uint8_t { kObject, kArray };

  void before_value();
  void open(Scope s, char brace);
  void close(Scope s, char brace);
  void newline_indent();

  static constexpr int kMaxDepth = 64;

  std::ostream& os_;
  int indent_;
  int depth_ = 0;
  Scope scopes_[kMaxDepth] = {};
  bool first_in_scope_[kMaxDepth] = {};
  bool after_key_ = false;
  bool wrote_any_ = false;
};

}  // namespace kcore::util
