// Seeded fuzz driver for obs::parse_json, the one JSON reader behind the
// run ledger, the report tools and live_probe. Inputs are real ledger
// and telemetry lines (tests/data/), mutated the way the checkpoint suite
// mutates its containers: every single-bit flip, truncation at every byte,
// plus two-line splices (torn concurrent appends) and nesting at the depth
// limit. Every parse reads from an exactly-sized heap buffer, so under
// ASan/UBSan (label `sanitize`) any read past the end is reported.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "obs/json_min.hpp"
#include "util/rng.hpp"

namespace fedra {
namespace {

std::vector<std::string> read_lines(const std::string& name) {
  std::ifstream in(std::string(FEDRA_TEST_DATA_DIR) + "/" + name);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

// Every line of the ledger and telemetry fixtures: header, round, decision,
// counter, gauge, histogram and span records.
std::vector<std::string> corpus() {
  std::vector<std::string> lines = read_lines("run.ledger.jsonl");
  for (auto& line : read_lines("telemetry.jsonl")) lines.push_back(line);
  return lines;
}

bool parse_exact(const std::string& text) {
  const auto buf = std::make_unique<char[]>(text.size());
  std::copy(text.begin(), text.end(), buf.get());
  obs::JsonValue v;
  return obs::parse_json(std::string_view(buf.get(), text.size()), v);
}

std::string nested(std::size_t depth, const char* open, const char* leaf,
                   const char* close) {
  std::string s;
  for (std::size_t i = 0; i < depth; ++i) s += open;
  s += leaf;
  for (std::size_t i = 0; i < depth; ++i) s += close;
  return s;
}

TEST(JsonFuzz, CorpusParsesAsObjects) {
  const auto lines = corpus();
  ASSERT_GE(lines.size(), 10u);
  for (const auto& line : lines) {
    obs::JsonValue v;
    ASSERT_TRUE(obs::parse_json(line, v)) << line;
    EXPECT_TRUE(v.is_object());
    EXPECT_TRUE(v.find("type") != nullptr && v.find("type")->is_string());
  }
}

TEST(JsonFuzz, EveryStrictPrefixIsRejected) {
  for (const auto& line : corpus()) {
    for (std::size_t len = 0; len < line.size(); ++len) {
      EXPECT_FALSE(parse_exact(line.substr(0, len)))
          << "prefix of " << len << " bytes accepted: " << line;
    }
  }
}

TEST(JsonFuzz, EveryBitFlipParsesOrRejectsCleanly) {
  // A flip may still be valid JSON (a digit becomes another digit); the
  // property pinned is "no crash, no out-of-bounds read".
  std::size_t rejected = 0;
  std::size_t flips = 0;
  for (const auto& line : corpus()) {
    for (std::size_t byte = 0; byte < line.size(); ++byte) {
      for (int bit = 0; bit < 8; ++bit) {
        std::string flipped = line;
        flipped[byte] = static_cast<char>(flipped[byte] ^ (1 << bit));
        ++flips;
        if (!parse_exact(flipped)) ++rejected;
      }
    }
  }
  EXPECT_GT(rejected, 0u);
  EXPECT_LT(rejected, flips);
}

TEST(JsonFuzz, TwoLineSplicesParseOrRejectCleanly) {
  // A torn concurrent append: the head of one line runs into another
  // line, whole or from a random offset.
  const auto lines = corpus();
  Rng rng(17);
  for (const auto& a : lines) {
    for (const auto& b : lines) {
      for (int trial = 0; trial < 4; ++trial) {
        const auto cut_a = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(a.size())));
        const auto cut_b = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(b.size())));
        parse_exact(a.substr(0, cut_a) + b);
        parse_exact(a.substr(0, cut_a) + b.substr(cut_b));
        parse_exact(a.substr(0, cut_a) + "\n" + b);
      }
    }
  }
}

TEST(JsonFuzz, NestingDepthIsBoundedAt64) {
  EXPECT_TRUE(parse_exact(nested(64, "[", "", "]")));
  EXPECT_FALSE(parse_exact(nested(65, "[", "", "]")));
  EXPECT_TRUE(parse_exact(nested(64, "{\"a\":", "1", "}")));
  EXPECT_FALSE(parse_exact(nested(65, "{\"a\":", "1", "}")));
  EXPECT_TRUE(parse_exact(nested(63, "[", "{}", "]")));
  EXPECT_FALSE(parse_exact(nested(64, "[", "{}", "]")));
  // Far past the limit: rejected at depth 65, not by exhausting the stack.
  EXPECT_FALSE(parse_exact(nested(100000, "[", "", "]")));
  EXPECT_FALSE(parse_exact(std::string(100000, '[')));
}

}  // namespace
}  // namespace fedra
