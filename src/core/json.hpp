// Minimal recursive-descent JSON reader for the measurement pipeline.
//
// The bench layer *writes* snapshots with a hand-rolled serializer
// (bench/scenario.cpp); this is the matching reader that `lclbench
// --compare`/`--history` and the tests use to load BENCH_*.json files
// back, JSON being the only snapshot format. It is a deliberate subset
// implementation — no external dependency, no DOM mutation, object keys
// kept in file order — just enough to parse what the snapshot writer
// (and ordinary hand-written JSON) produces.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace lcl::core::json {

/// A parsed JSON value. Tagged union over the six JSON types; the
/// accessors never throw — missing keys / wrong types resolve to the
/// caller's default, which is exactly what reading snapshots of mixed
/// schema versions needs.
struct Value {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<Value> array;
  std::vector<std::pair<std::string, Value>> object;  // file order

  [[nodiscard]] bool is_null() const { return type == Type::kNull; }
  [[nodiscard]] bool is_object() const { return type == Type::kObject; }
  [[nodiscard]] bool is_array() const { return type == Type::kArray; }

  /// Object member lookup; nullptr when absent or not an object.
  [[nodiscard]] const Value* find(std::string_view key) const;

  /// Typed reads with defaults (no throw, no coercion).
  [[nodiscard]] double number_or(double fallback) const;
  [[nodiscard]] std::int64_t int_or(std::int64_t fallback) const;
  [[nodiscard]] bool bool_or(bool fallback) const;
  [[nodiscard]] const std::string& string_or(
      const std::string& fallback) const;

  /// Convenience: `find(key)` then the typed read, defaulting when the
  /// key is missing entirely.
  [[nodiscard]] double get_number(std::string_view key,
                                  double fallback) const;
  [[nodiscard]] bool get_bool(std::string_view key, bool fallback) const;
  [[nodiscard]] std::string get_string(std::string_view key,
                                       const std::string& fallback) const;
};

/// Parses a complete JSON document. Throws `std::runtime_error` with a
/// byte offset on malformed input or trailing garbage.
[[nodiscard]] Value parse(std::string_view text);

/// Reads and parses a file. Throws `std::runtime_error` if the file
/// cannot be read or does not parse.
[[nodiscard]] Value parse_file(const std::string& path);

/// Shared JSON number formatting: non-finite values become "null",
/// integral values inside the exactly-representable double range
/// [-2^53, 2^53] print as full-precision integers (53-bit problem seeds
/// must survive a snapshot round-trip), anything else through
/// `fallback_fmt` (a printf format for one double — the snapshot writer
/// passes "%.6g" for compact files, `dump` "%.17g" for exact
/// round-trips). Single source of truth for the integral cutoff.
[[nodiscard]] std::string format_number(double v, const char* fallback_fmt);

/// Serializes a Value into a canonical, deterministic text form:
/// 2-space-indented objects/arrays with keys in stored (file) order,
/// integral numbers in [-2^53, 2^53] printed as integers, other numbers
/// via shortest-round-trip %.17g, and a trailing newline. `dump` and
/// `parse` are exact inverses on this form (`dump(parse(dump(v))) ==
/// dump(v)`), which is what the golden-file round-trip test pins: any
/// drift between the snapshot schema, the parser, and this serializer
/// shows up as a byte diff at test time rather than inside `--compare`.
[[nodiscard]] std::string dump(const Value& v);

}  // namespace lcl::core::json
