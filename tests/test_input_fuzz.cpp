// Seeded fuzz tests for two readers of outside input: the trace CSV
// loader and the run-ledger reader. Inputs are the checked-in fixtures
// tests/data/trace.csv and tests/data/run.ledger.jsonl, mutated the way
// test_json_fuzz and the checkpoint suite mutate theirs: every single-bit
// flip and every truncation. Under ASan/UBSan (label `sanitize`) the
// pinned property is "typed error or sound result, never a crash":
//   * a mutated trace either throws std::exception or loads with finite,
//     non-negative samples and a positive sum;
//   * a mutated ledger always parses, every surviving round's device ids
//     are below its row count, attribute() runs on it, and every
//     truncation also renders to HTML.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <exception>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>

#include "obs/attribution.hpp"
#include "obs/ledger.hpp"
#include "obs/report.hpp"
#include "trace/loader.hpp"

namespace fedra {
namespace {

std::string read_fixture(const char* name) {
  std::ifstream in(std::string(FEDRA_TEST_DATA_DIR) + "/" + name,
                   std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

// ---------------------------------------------------------------------------
// Trace CSV loader

/// Loads `text` through a scratch file. Returns whether it loaded; a
/// loaded trace must be sound.
bool load_checked(const std::string& text, const std::string& path) {
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << text;
  }
  try {
    const BandwidthTrace trace = load_trace_csv(path);
    double sum = 0.0;
    for (const double v : trace.samples()) {
      EXPECT_TRUE(std::isfinite(v) && v >= 0.0) << v << " from:\n" << text;
      sum += v;
    }
    EXPECT_GT(sum, 0.0) << text;
    return true;
  } catch (const std::exception&) {
    return false;
  }
}

class TraceCsvFuzz : public ::testing::Test {
 protected:
  void SetUp() override {
    text_ = read_fixture("trace.csv");
    ASSERT_GT(text_.size(), 100u);
  }
  void TearDown() override { std::remove(path_.c_str()); }

  std::string text_;
  const std::string path_ = ::testing::TempDir() + "trace_fuzz.csv";
};

TEST_F(TraceCsvFuzz, FixtureLoads) {
  EXPECT_TRUE(load_checked(text_, path_));
}

TEST_F(TraceCsvFuzz, EveryBitFlipLoadsSoundlyOrThrows) {
  std::size_t loaded = 0;
  std::size_t flips = 0;
  for (std::size_t byte = 0; byte < text_.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string flipped = text_;
      flipped[byte] = static_cast<char>(flipped[byte] ^ (1 << bit));
      ++flips;
      if (load_checked(flipped, path_)) ++loaded;
    }
  }
  // Both outcomes occur: a digit may become another digit, a separator
  // may become garbage.
  EXPECT_GT(loaded, 0u);
  EXPECT_LT(loaded, flips);
}

TEST_F(TraceCsvFuzz, EveryTruncationLoadsSoundlyOrThrows) {
  std::size_t loaded = 0;
  for (std::size_t len = 0; len < text_.size(); ++len) {
    if (load_checked(text_.substr(0, len), path_)) ++loaded;
  }
  EXPECT_GT(loaded, 0u);
}

// ---------------------------------------------------------------------------
// Run-ledger reader

/// Parses `text`, checks the reader's id invariant, and attributes the
/// result. Returns the parsed ledger for further checks.
obs::Ledger read_checked(const std::string& text) {
  std::istringstream in(text);
  obs::Ledger ledger = obs::read_ledger(in);
  for (const obs::RoundRecord& round : ledger.rounds) {
    for (const obs::DeviceRoundRecord& d : round.devices) {
      EXPECT_LT(d.device, round.devices.size()) << text;
    }
  }
  const obs::RunAttribution run = obs::attribute(ledger);
  EXPECT_EQ(run.rounds.size(), ledger.rounds.size());
  return ledger;
}

class LedgerFuzz : public ::testing::Test {
 protected:
  void SetUp() override {
    text_ = read_fixture("run.ledger.jsonl");
    ASSERT_GT(text_.size(), 1000u);
  }

  std::string text_;
};

TEST_F(LedgerFuzz, FixtureParsesCleanly) {
  const obs::Ledger ledger = read_checked(text_);
  EXPECT_EQ(ledger.parse_errors, 0u);
  EXPECT_FALSE(ledger.rounds.empty());
}

TEST_F(LedgerFuzz, EveryBitFlipParsesAndAttributes) {
  std::size_t damaged = 0;
  for (std::size_t byte = 0; byte < text_.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string flipped = text_;
      flipped[byte] = static_cast<char>(flipped[byte] ^ (1 << bit));
      const obs::Ledger ledger = read_checked(flipped);
      if (ledger.parse_errors > 0) ++damaged;
    }
  }
  EXPECT_GT(damaged, 0u);
}

TEST_F(LedgerFuzz, EveryTruncationParsesAttributesAndRenders) {
  for (std::size_t len = 0; len < text_.size(); ++len) {
    const obs::Ledger ledger = read_checked(text_.substr(0, len));
    const std::string html =
        obs::render_report_html(ledger, obs::attribute(ledger));
    EXPECT_NE(html.find("</html>"), std::string::npos) << len;
  }
}

}  // namespace
}  // namespace fedra
