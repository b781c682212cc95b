// Descriptive statistics used throughout the evaluation harness:
// streaming moments (Welford), percentiles, empirical CDFs, and the
// summary rows the figure benches print.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

namespace fedra {

/// Numerically stable streaming mean/variance (Welford's algorithm).
class RunningStat {
 public:
  void add(double x);

  std::size_t count() const { return n_; }
  double mean() const { return n_ > 0 ? mean_ : 0.0; }
  /// Sample variance (n-1 denominator); 0 for fewer than two samples.
  double variance() const;
  double stddev() const;
  double min() const { return n_ > 0 ? min_ : 0.0; }
  double max() const { return n_ > 0 ? max_ : 0.0; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Mean of a sample (0 if empty).
double mean(std::span<const double> xs);

/// Sample standard deviation (n-1); 0 for fewer than two samples.
double stddev(std::span<const double> xs);

/// Linear-interpolated percentile, p in [0, 100]. Sorts a copy.
double percentile(std::span<const double> xs, double p);

/// One point of an empirical CDF.
struct CdfPoint {
  double value;       ///< sample value
  double cumulative;  ///< fraction of samples <= value, in (0, 1]
};

/// Full empirical CDF (sorted values, i/n cumulative fractions).
std::vector<CdfPoint> empirical_cdf(std::span<const double> xs);

/// Fraction of samples <= threshold.
double cdf_at(std::span<const double> xs, double threshold);

/// Fixed-size summary used by the figure benches.
struct Summary {
  std::size_t count = 0;
  double mean = 0.0;
  double stddev = 0.0;
  double min = 0.0;
  double p25 = 0.0;
  double median = 0.0;
  double p75 = 0.0;
  double p90 = 0.0;
  double max = 0.0;
};

Summary summarize(std::span<const double> xs);

/// Formats a Summary as a fixed-width table row (no trailing newline).
std::string format_summary_row(const std::string& label, const Summary& s);

/// Header row matching format_summary_row's columns.
std::string summary_header();

}  // namespace fedra
