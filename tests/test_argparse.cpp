#include "util/argparse.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace fedra {
namespace {

ArgParser parse(std::vector<std::string> args) { return ArgParser(args); }

TEST(ArgParse, KeyValuePairs) {
  auto p = parse({"--alpha", "1.5", "--name", "bob"});
  EXPECT_TRUE(p.has("alpha"));
  EXPECT_EQ(p.get("name", ""), "bob");
  EXPECT_DOUBLE_EQ(p.get_double("alpha", 0.0), 1.5);
}

TEST(ArgParse, EqualsSyntax) {
  auto p = parse({"--alpha=2.5", "--mode=fast"});
  EXPECT_DOUBLE_EQ(p.get_double("alpha", 0.0), 2.5);
  EXPECT_EQ(p.get("mode", ""), "fast");
}

TEST(ArgParse, BareFlags) {
  auto p = parse({"--verbose", "--count", "3"});
  EXPECT_TRUE(p.flag("verbose"));
  EXPECT_FALSE(p.flag("quiet"));
  EXPECT_TRUE(p.flag("quiet", true));  // fallback honored
  EXPECT_EQ(p.get_int("count", 0), 3);
}

TEST(ArgParse, FlagFollowedByOption) {
  // `--dry-run --out x`: dry-run must be a flag, not consume "--out".
  auto p = parse({"--dry-run", "--out", "x"});
  EXPECT_TRUE(p.flag("dry-run"));
  EXPECT_EQ(p.get("out", ""), "x");
}

TEST(ArgParse, ExplicitBooleanValues) {
  auto p = parse({"--a", "true", "--b", "false", "--c", "1", "--d", "no"});
  EXPECT_TRUE(p.flag("a"));
  EXPECT_FALSE(p.flag("b"));
  EXPECT_TRUE(p.flag("c"));
  EXPECT_FALSE(p.flag("d"));
}

TEST(ArgParse, Positionals) {
  auto p = parse({"train", "--seed", "7", "extra"});
  ASSERT_EQ(p.positionals().size(), 2u);
  EXPECT_EQ(p.positionals()[0], "train");
  EXPECT_EQ(p.positionals()[1], "extra");
}

TEST(ArgParse, DoubleDashEndsOptions) {
  auto p = parse({"--a", "1", "--", "--not-an-option"});
  EXPECT_EQ(p.get_int("a", 0), 1);
  ASSERT_EQ(p.positionals().size(), 1u);
  EXPECT_EQ(p.positionals()[0], "--not-an-option");
}

TEST(ArgParse, RequireThrowsWhenMissing) {
  auto p = parse({"--present", "x"});
  EXPECT_EQ(p.require("present"), "x");
  EXPECT_THROW(p.require("absent"), std::invalid_argument);
}

TEST(ArgParse, TypedGetterErrors) {
  auto p = parse({"--n", "abc", "--x", "1.5y"});
  EXPECT_THROW(p.get_int("n", 0), std::invalid_argument);
  EXPECT_THROW(p.get_double("x", 0.0), std::invalid_argument);
}

TEST(ArgParse, NegativeNumbersAsValues) {
  auto p = parse({"--delta", "-2.5", "--k", "-3"});
  EXPECT_DOUBLE_EQ(p.get_double("delta", 0.0), -2.5);
  EXPECT_EQ(p.get_int("k", 0), -3);
}

TEST(ArgParse, DoubleList) {
  auto p = parse({"--bw", "1e6,2.5e6,3e6"});
  auto list = p.get_double_list("bw");
  ASSERT_EQ(list.size(), 3u);
  EXPECT_DOUBLE_EQ(list[0], 1e6);
  EXPECT_DOUBLE_EQ(list[1], 2.5e6);
  EXPECT_DOUBLE_EQ(list[2], 3e6);
  EXPECT_TRUE(p.get_double_list("missing").empty());
}

TEST(ArgParse, DoubleListBadElementThrows) {
  auto p = parse({"--bw", "1e6,zzz"});
  EXPECT_THROW(p.get_double_list("bw"), std::invalid_argument);
}

TEST(ArgParse, DoubleListRejectsTrailingAndEmpty) {
  // Each element must parse whole, as get_double requires, and none may
  // be empty.
  for (const char* bad : {"2e6abc", "2e6abc,,1e6", "1e6,,2e6", "1e6,2e6,",
                          ",1e6", ""}) {
    auto p = parse({"--bw", bad});
    EXPECT_THROW(p.get_double_list("bw"), std::invalid_argument) << bad;
  }
}

TEST(ArgParse, UnknownKeys) {
  auto p = parse({"--good", "1", "--oops", "2"});
  auto unknown = p.unknown_keys({"good"});
  ASSERT_EQ(unknown.size(), 1u);
  EXPECT_EQ(unknown[0], "oops");
}

TEST(ArgParse, ArgcArgvConstructorSkipsProgramName) {
  const char* argv[] = {"prog", "--k", "9"};
  ArgParser p(3, argv);
  EXPECT_EQ(p.get_int("k", 0), 9);
}

TEST(ArgParse, LastOccurrenceWins) {
  auto p = parse({"--k", "1", "--k", "2"});
  EXPECT_EQ(p.get_int("k", 0), 2);
}

}  // namespace
}  // namespace fedra
