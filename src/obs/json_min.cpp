#include "obs/json_min.hpp"

#include <charconv>
#include <cstdlib>
#include <cctype>

namespace fedra::obs {
namespace {

constexpr int kMaxDepth = 64;  // nested arrays/objects

struct Parser {
  const char* cur;
  const char* end;

  void skip_ws() {
    while (cur != end && (*cur == ' ' || *cur == '\t' || *cur == '\n' ||
                          *cur == '\r')) {
      ++cur;
    }
  }

  bool consume(char c) {
    if (cur != end && *cur == c) {
      ++cur;
      return true;
    }
    return false;
  }

  bool consume_literal(std::string_view lit) {
    if (static_cast<std::size_t>(end - cur) < lit.size()) return false;
    for (std::size_t i = 0; i < lit.size(); ++i) {
      if (cur[i] != lit[i]) return false;
    }
    cur += lit.size();
    return true;
  }

  bool parse_string(std::string& out) {
    if (!consume('"')) return false;
    out.clear();
    while (cur != end) {
      char c = *cur++;
      if (c == '"') return true;
      if (c == '\\') {
        if (cur == end) return false;
        char esc = *cur++;
        switch (esc) {
          case '"': out.push_back('"'); break;
          case '\\': out.push_back('\\'); break;
          case '/': out.push_back('/'); break;
          case 'b': out.push_back('\b'); break;
          case 'f': out.push_back('\f'); break;
          case 'n': out.push_back('\n'); break;
          case 'r': out.push_back('\r'); break;
          case 't': out.push_back('\t'); break;
          case 'u': {
            // Decode \uXXXX; fedra's writers only escape control characters,
            // so non-BMP surrogate pairs are folded to '?' rather than
            // implementing full UTF-16 pairing.
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              if (cur == end) return false;
              char h = *cur++;
              code <<= 4;
              if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
              else return false;
            }
            if (code < 0x80) {
              out.push_back(static_cast<char>(code));
            } else if (code < 0x800) {
              out.push_back(static_cast<char>(0xC0 | (code >> 6)));
              out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
            } else {
              out.push_back(static_cast<char>(0xE0 | (code >> 12)));
              out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
              out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
            }
            break;
          }
          default: return false;
        }
      } else if (static_cast<unsigned char>(c) < 0x20) {
        return false;  // raw control character inside a string: torn line
      } else {
        out.push_back(c);
      }
    }
    return false;  // unterminated string
  }

  bool digits() {
    const char* start = cur;
    while (cur != end && std::isdigit(static_cast<unsigned char>(*cur))) ++cur;
    return cur != start;
  }

  // RFC 8259: -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?. The grammar
  // is checked here; strtod only converts the span it accepted.
  bool parse_number(double& out) {
    const char* start = cur;
    consume('-');
    if (consume('0')) {
      if (cur != end && std::isdigit(static_cast<unsigned char>(*cur))) {
        return false;  // a leading zero ("01")
      }
    } else if (!digits()) {
      return false;
    }
    if (consume('.') && !digits()) return false;
    if (consume('e') || consume('E')) {
      if (!consume('+')) consume('-');
      if (!digits()) return false;
    }
    const std::string buf(start, cur);
    out = std::strtod(buf.c_str(), nullptr);
    return true;
  }

  // `depth` counts the containers enclosing this value.
  bool parse_value(JsonValue& out, int depth) {
    skip_ws();
    if (cur == end) return false;
    char c = *cur;
    // Bound recursion on hostile input.
    if ((c == '{' || c == '[') && depth == kMaxDepth) return false;
    if (c == '{') {
      ++cur;
      out.kind = JsonValue::Kind::kObject;
      skip_ws();
      if (consume('}')) return true;
      while (true) {
        skip_ws();
        std::string key;
        if (!parse_string(key)) return false;
        skip_ws();
        if (!consume(':')) return false;
        JsonValue child;
        if (!parse_value(child, depth + 1)) return false;
        out.members.emplace_back(std::move(key), std::move(child));
        skip_ws();
        if (consume(',')) continue;
        if (consume('}')) return true;
        return false;
      }
    }
    if (c == '[') {
      ++cur;
      out.kind = JsonValue::Kind::kArray;
      skip_ws();
      if (consume(']')) return true;
      while (true) {
        JsonValue child;
        if (!parse_value(child, depth + 1)) return false;
        out.array.push_back(std::move(child));
        skip_ws();
        if (consume(',')) continue;
        if (consume(']')) return true;
        return false;
      }
    }
    if (c == '"') {
      out.kind = JsonValue::Kind::kString;
      return parse_string(out.str);
    }
    if (consume_literal("true")) {
      out.kind = JsonValue::Kind::kBool;
      out.boolean = true;
      return true;
    }
    if (consume_literal("false")) {
      out.kind = JsonValue::Kind::kBool;
      out.boolean = false;
      return true;
    }
    if (consume_literal("null")) {
      out.kind = JsonValue::Kind::kNull;
      return true;
    }
    out.kind = JsonValue::Kind::kNumber;
    return parse_number(out.number);
  }
};

}  // namespace

const JsonValue* JsonValue::find(std::string_view key) const {
  if (kind != Kind::kObject) return nullptr;
  const JsonValue* found = nullptr;
  for (const auto& [name, value] : members) {
    if (name == key) found = &value;  // last duplicate wins, like most readers
  }
  return found;
}

double JsonValue::get_number(std::string_view key, double fallback) const {
  const JsonValue* v = find(key);
  return v ? v->number_or(fallback) : fallback;
}

std::string JsonValue::get_string(std::string_view key,
                                  std::string fallback) const {
  const JsonValue* v = find(key);
  return v ? v->string_or(std::move(fallback)) : fallback;
}

bool JsonValue::get_bool(std::string_view key, bool fallback) const {
  const JsonValue* v = find(key);
  return v ? v->bool_or(fallback) : fallback;
}

bool parse_json(std::string_view text, JsonValue& out) {
  out = JsonValue{};
  Parser p{text.data(), text.data() + text.size()};
  if (!p.parse_value(out, 0)) return false;
  p.skip_ws();
  return p.cur == p.end;
}

void json_append_escaped(std::string& out, std::string_view s) {
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += "\\u00";
          out += "0123456789abcdef"[(c >> 4) & 0xF];
          out += "0123456789abcdef"[c & 0xF];
        } else {
          out += c;
        }
    }
  }
}

void json_append_double(std::string& out, double v) {
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  out.append(buf, res.ptr);
}

void json_append_u64(std::string& out, std::uint64_t v) {
  char buf[24];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  out.append(buf, res.ptr);
}

void json_append_hex(std::string& out, std::uint64_t v) {
  char buf[24];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v, 16);
  out += "\"0x";
  out.append(buf, res.ptr);
  out += '"';
}

}  // namespace fedra::obs
