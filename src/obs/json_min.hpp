#pragma once

// Minimal JSON reader and writer for the observability layer.
//
// Reader: the run ledger reader, the report tool and live_probe all read
// JSON that fedra itself wrote (one object per JSONL line, or one HTTP
// payload).  The repo has no external dependencies, so this is a small,
// self-contained value parser: strict enough to reject torn lines from a
// crashed run, tolerant of arbitrary key order and unknown fields.
//
// Numbers follow the RFC 8259 grammar (no leading '+', no bare '.5' or
// '1.', no leading zeros) and are converted with strtod.  Arrays and
// objects may nest at most 64 deep; deeper input is rejected rather than
// recursed into.
//
// Writer: every JSON text fedra emits (ledger records, the telemetry JSONL
// and Chrome trace, /healthz, /statusz and its status sources, the flight
// recorder dump) is built with the appenders below.  Doubles are written
// in the shortest form that round-trips (std::to_chars), so parse_json
// recovers the exact bits the writer held.

#include <cstddef>
#include <cstdint>
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

// ---------------------------------------------------------------------------
// Writer.

/// Appends `s` with `"`, `\` and control bytes escaped (no surrounding
/// quotes).
void json_append_escaped(std::string& out, std::string_view s);
/// Shortest round-trip decimal form ("0.1", "1e-07", "3").
void json_append_double(std::string& out, double v);
void json_append_u64(std::string& out, std::uint64_t v);
/// A 64-bit id as a quoted hex string ("0x1f"): ids past 2^53 do not
/// survive a double-precision JSON number parse.
void json_append_hex(std::string& out, std::uint64_t v);

/// Writes one JSON object member by member, placing the commas:
///
///   JsonObject o(out);
///   o.str("type", "round").u64("round", 3).num("cost", 1.5);
///   o.close();  // appends '}'
///
/// Keys are appended verbatim: they are identifiers chosen in code.
class JsonObject {
 public:
  explicit JsonObject(std::string& out) : out_(out) { out_ += '{'; }

  JsonObject& num(std::string_view key, double v) {
    json_append_double(member(key), v);
    return *this;
  }
  JsonObject& u64(std::string_view key, std::uint64_t v) {
    json_append_u64(member(key), v);
    return *this;
  }
  JsonObject& flag(std::string_view key, bool v) {
    member(key) += v ? "true" : "false";
    return *this;
  }
  JsonObject& str(std::string_view key, std::string_view v) {
    std::string& out = member(key);
    out += '"';
    json_append_escaped(out, v);
    out += '"';
    return *this;
  }
  JsonObject& hex(std::string_view key, std::uint64_t v) {
    json_append_hex(member(key), v);
    return *this;
  }
  JsonObject& nums(std::string_view key, const std::vector<double>& values) {
    std::string& out = member(key);
    out += '[';
    for (std::size_t i = 0; i < values.size(); ++i) {
      if (i > 0) out += ',';
      json_append_double(out, values[i]);
    }
    out += ']';
    return *this;
  }
  /// Starts a member whose value the caller appends (a nested object or
  /// array) and returns the buffer to append it to.
  std::string& member(std::string_view key) {
    if (!first_) out_ += ',';
    first_ = false;
    out_ += '"';
    out_ += key;
    out_ += "\":";
    return out_;
  }
  void close() { out_ += '}'; }

 private:
  std::string& out_;
  bool first_ = true;
};

}  // namespace fedra::obs
