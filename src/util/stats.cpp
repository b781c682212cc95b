#include "util/stats.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "util/contracts.hpp"

namespace fedra {

void RunningStat::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double RunningStat::variance() const {
  return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
}

double RunningStat::stddev() const { return std::sqrt(variance()); }

double mean(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  double s = 0.0;
  for (double x : xs) s += x;
  return s / static_cast<double>(xs.size());
}

double stddev(std::span<const double> xs) {
  RunningStat rs;
  for (double x : xs) rs.add(x);
  return rs.stddev();
}

double percentile(std::span<const double> xs, double p) {
  FEDRA_EXPECTS(p >= 0.0 && p <= 100.0);
  if (xs.empty()) return 0.0;
  std::vector<double> sorted(xs.begin(), xs.end());
  std::sort(sorted.begin(), sorted.end());
  if (sorted.size() == 1) return sorted[0];
  const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

std::vector<CdfPoint> empirical_cdf(std::span<const double> xs) {
  std::vector<double> sorted(xs.begin(), xs.end());
  std::sort(sorted.begin(), sorted.end());
  std::vector<CdfPoint> cdf;
  cdf.reserve(sorted.size());
  const double n = static_cast<double>(sorted.size());
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    cdf.push_back({sorted[i], static_cast<double>(i + 1) / n});
  }
  return cdf;
}

double cdf_at(std::span<const double> xs, double threshold) {
  if (xs.empty()) return 0.0;
  std::size_t c = 0;
  for (double x : xs) {
    if (x <= threshold) ++c;
  }
  return static_cast<double>(c) / static_cast<double>(xs.size());
}

Summary summarize(std::span<const double> xs) {
  Summary s;
  s.count = xs.size();
  if (xs.empty()) return s;
  s.mean = mean(xs);
  s.stddev = stddev(xs);
  s.min = percentile(xs, 0);
  s.p25 = percentile(xs, 25);
  s.median = percentile(xs, 50);
  s.p75 = percentile(xs, 75);
  s.p90 = percentile(xs, 90);
  s.max = percentile(xs, 100);
  return s;
}

std::string format_summary_row(const std::string& label, const Summary& s) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "%-14s %6zu %10.4f %9.4f %9.4f %9.4f %9.4f %9.4f %9.4f %9.4f",
                label.c_str(), s.count, s.mean, s.stddev, s.min, s.p25,
                s.median, s.p75, s.p90, s.max);
  return buf;
}

std::string summary_header() {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "%-14s %6s %10s %9s %9s %9s %9s %9s %9s %9s", "policy", "n",
                "mean", "stddev", "min", "p25", "median", "p75", "p90", "max");
  return buf;
}

}  // namespace fedra
