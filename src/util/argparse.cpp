#include "util/argparse.hpp"

#include <algorithm>
#include <stdexcept>

namespace fedra {

ArgParser::ArgParser(int argc, const char* const* argv) {
  std::vector<std::string> args;
  for (int i = 1; i < argc; ++i) args.emplace_back(argv[i]);
  parse(args);
}

ArgParser::ArgParser(const std::vector<std::string>& args) { parse(args); }

void ArgParser::parse(const std::vector<std::string>& args) {
  bool options_done = false;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    if (options_done || a.rfind("--", 0) != 0) {
      positional_.push_back(a);
      continue;
    }
    if (a == "--") {
      options_done = true;
      continue;
    }
    const std::string body = a.substr(2);
    if (body.empty()) throw std::invalid_argument("empty option name");
    const auto eq = body.find('=');
    if (eq != std::string::npos) {
      options_[body.substr(0, eq)] = body.substr(eq + 1);
      continue;
    }
    // `--key value` unless the next token is another option or absent —
    // then it's a bare flag.
    if (i + 1 < args.size() && args[i + 1].rfind("--", 0) != 0) {
      options_[body] = args[i + 1];
      ++i;
    } else {
      options_[body] = "";
    }
  }
}

bool ArgParser::has(const std::string& key) const {
  return options_.count(key) > 0;
}

bool ArgParser::flag(const std::string& key, bool fallback) const {
  auto it = options_.find(key);
  if (it == options_.end()) return fallback;
  const std::string& v = it->second;
  if (v.empty() || v == "true" || v == "1" || v == "yes") return true;
  if (v == "false" || v == "0" || v == "no") return false;
  throw std::invalid_argument("not a boolean value for --" + key + ": " + v);
}

std::string ArgParser::get(const std::string& key,
                           const std::string& fallback) const {
  auto it = options_.find(key);
  return it == options_.end() ? fallback : it->second;
}

std::string ArgParser::require(const std::string& key) const {
  auto it = options_.find(key);
  if (it == options_.end()) {
    throw std::invalid_argument("missing required option --" + key);
  }
  return it->second;
}

double ArgParser::get_double(const std::string& key, double fallback) const {
  auto it = options_.find(key);
  if (it == options_.end()) return fallback;
  try {
    std::size_t pos = 0;
    const double v = std::stod(it->second, &pos);
    if (pos != it->second.size()) throw std::invalid_argument("trailing");
    return v;
  } catch (const std::exception&) {
    throw std::invalid_argument("not a number for --" + key + ": " +
                                it->second);
  }
}

std::int64_t ArgParser::get_int(const std::string& key,
                                std::int64_t fallback) const {
  auto it = options_.find(key);
  if (it == options_.end()) return fallback;
  try {
    std::size_t pos = 0;
    const long long v = std::stoll(it->second, &pos);
    if (pos != it->second.size()) throw std::invalid_argument("trailing");
    return v;
  } catch (const std::exception&) {
    throw std::invalid_argument("not an integer for --" + key + ": " +
                                it->second);
  }
}

std::vector<double> ArgParser::get_double_list(const std::string& key) const {
  auto it = options_.find(key);
  std::vector<double> out;
  if (it == options_.end()) return out;
  std::string rest = it->second;
  std::size_t start = 0;
  while (start <= rest.size()) {
    const auto comma = rest.find(',', start);
    const std::string tok =
        rest.substr(start, comma == std::string::npos ? std::string::npos
                                                      : comma - start);
    try {
      std::size_t pos = 0;
      out.push_back(std::stod(tok, &pos));
      if (pos != tok.size()) throw std::invalid_argument("trailing");
    } catch (const std::exception&) {
      throw std::invalid_argument("bad list element for --" + key + ": '" +
                                  tok + "'");
    }
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

std::vector<std::string> ArgParser::unknown_keys(
    const std::vector<std::string>& known) const {
  std::vector<std::string> out;
  for (const auto& [key, value] : options_) {
    (void)value;
    if (std::find(known.begin(), known.end(), key) == known.end()) {
      out.push_back(key);
    }
  }
  return out;
}

}  // namespace fedra
