#pragma once

// Minimal recursive-descent JSON parser for the observability layer.
//
// The run ledger reader, the report tools and live_probe all read JSON that
// fedra itself wrote (one object per JSONL line, or one HTTP payload).  The
// repo has no external dependencies, so this is a small, self-contained
// value parser: strict enough to reject torn lines from a crashed run,
// tolerant of arbitrary key order and unknown fields.
//
// Numbers follow the RFC 8259 grammar (no leading '+', no bare '.5' or
// '1.', no leading zeros) and are converted with strtod, so a double
// printed with "%.17g" by the writer round-trips bit-exactly -- the ledger
// tests rely on this.  Arrays and objects may nest at most 64 deep; deeper
// input is rejected rather than recursed into.

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace fedra::obs {

class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<JsonValue> array;
  // Insertion-ordered object members (duplicate keys keep the last value).
  std::vector<std::pair<std::string, JsonValue>> members;

  bool is_object() const { return kind == Kind::kObject; }
  bool is_array() const { return kind == Kind::kArray; }
  bool is_number() const { return kind == Kind::kNumber; }
  bool is_string() const { return kind == Kind::kString; }

  /// Object member lookup; nullptr when absent or not an object.
  const JsonValue* find(std::string_view key) const;

  double number_or(double fallback) const {
    return kind == Kind::kNumber ? number : fallback;
  }
  std::string string_or(std::string fallback) const {
    return kind == Kind::kString ? str : std::move(fallback);
  }
  bool bool_or(bool fallback) const {
    return kind == Kind::kBool ? boolean : fallback;
  }

  /// Convenience: member lookup with defaults for the flat records the
  /// ledger writes.  Missing member or wrong kind yields the fallback.
  double get_number(std::string_view key, double fallback = 0.0) const;
  std::string get_string(std::string_view key, std::string fallback = "") const;
  bool get_bool(std::string_view key, bool fallback = false) const;
};

/// Parse `text` as exactly one JSON value (trailing whitespace allowed,
/// trailing garbage rejected).  Returns false on any syntax error; `out` is
/// unspecified on failure.
bool parse_json(std::string_view text, JsonValue& out);

}  // namespace fedra::obs
