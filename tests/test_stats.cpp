#include "util/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace fedra {
namespace {

TEST(RunningStat, EmptyIsZero) {
  RunningStat rs;
  EXPECT_EQ(rs.count(), 0u);
  EXPECT_DOUBLE_EQ(rs.mean(), 0.0);
  EXPECT_DOUBLE_EQ(rs.variance(), 0.0);
}

TEST(RunningStat, SingleValue) {
  RunningStat rs;
  rs.add(3.5);
  EXPECT_EQ(rs.count(), 1u);
  EXPECT_DOUBLE_EQ(rs.mean(), 3.5);
  EXPECT_DOUBLE_EQ(rs.variance(), 0.0);
  EXPECT_DOUBLE_EQ(rs.min(), 3.5);
  EXPECT_DOUBLE_EQ(rs.max(), 3.5);
}

TEST(RunningStat, MatchesDirectComputation) {
  std::vector<double> xs{1.0, 2.0, 4.0, 8.0, 16.0};
  RunningStat rs;
  for (double x : xs) rs.add(x);
  EXPECT_DOUBLE_EQ(rs.mean(), 6.2);
  double var = 0.0;
  for (double x : xs) var += (x - 6.2) * (x - 6.2);
  var /= 4.0;
  EXPECT_NEAR(rs.variance(), var, 1e-12);
  EXPECT_DOUBLE_EQ(rs.min(), 1.0);
  EXPECT_DOUBLE_EQ(rs.max(), 16.0);
}

TEST(Stats, MeanAndStddev) {
  std::vector<double> xs{2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  EXPECT_DOUBLE_EQ(mean(xs), 5.0);
  EXPECT_NEAR(stddev(xs), std::sqrt(32.0 / 7.0), 1e-12);
}

TEST(Stats, MeanEmptyIsZero) {
  EXPECT_DOUBLE_EQ(mean({}), 0.0);
  EXPECT_DOUBLE_EQ(stddev({}), 0.0);
}

TEST(Stats, PercentileEndpoints) {
  std::vector<double> xs{5.0, 1.0, 3.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100), 5.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 50), 3.0);
}

TEST(Stats, PercentileInterpolates) {
  std::vector<double> xs{0.0, 10.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 25), 2.5);
  EXPECT_DOUBLE_EQ(percentile(xs, 75), 7.5);
}

TEST(Stats, PercentileSingle) {
  std::vector<double> xs{7.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 33), 7.0);
}

TEST(Stats, EmpiricalCdfIsMonotone) {
  std::vector<double> xs{3.0, 1.0, 2.0, 2.0};
  auto cdf = empirical_cdf(xs);
  ASSERT_EQ(cdf.size(), 4u);
  for (std::size_t i = 1; i < cdf.size(); ++i) {
    EXPECT_GE(cdf[i].value, cdf[i - 1].value);
    EXPECT_GT(cdf[i].cumulative, cdf[i - 1].cumulative);
  }
  EXPECT_DOUBLE_EQ(cdf.back().cumulative, 1.0);
}

TEST(Stats, CdfAtThreshold) {
  std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(cdf_at(xs, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(cdf_at(xs, 2.0), 0.5);
  EXPECT_DOUBLE_EQ(cdf_at(xs, 10.0), 1.0);
  EXPECT_DOUBLE_EQ(cdf_at({}, 1.0), 0.0);
}

TEST(Stats, SummarizeFields) {
  std::vector<double> xs;
  for (int i = 1; i <= 100; ++i) xs.push_back(static_cast<double>(i));
  auto s = summarize(xs);
  EXPECT_EQ(s.count, 100u);
  EXPECT_DOUBLE_EQ(s.mean, 50.5);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 100.0);
  EXPECT_NEAR(s.median, 50.5, 1e-12);
  EXPECT_NEAR(s.p25, 25.75, 1e-12);
  EXPECT_NEAR(s.p90, 90.1, 1e-12);
}

TEST(Stats, SummaryRowFormatting) {
  auto s = summarize(std::vector<double>{1.0, 2.0, 3.0});
  const auto row = format_summary_row("drl", s);
  EXPECT_NE(row.find("drl"), std::string::npos);
  EXPECT_NE(row.find("2.0000"), std::string::npos);
  EXPECT_FALSE(summary_header().empty());
}

}  // namespace
}  // namespace fedra
