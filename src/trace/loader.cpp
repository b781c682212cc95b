#include "trace/loader.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/csv.hpp"

namespace fedra {

namespace {

bool parse_double(const std::string& s, double& out) {
  try {
    std::size_t pos = 0;
    out = std::stod(s, &pos);
    // Allow trailing whitespace only.
    while (pos < s.size() && std::isspace(static_cast<unsigned char>(s[pos]))) {
      ++pos;
    }
    return pos == s.size();
  } catch (const std::exception&) {
    return false;
  }
}

std::string where(const std::string& path, std::size_t row) {
  return " in " + path + " row " + std::to_string(row + 1);
}

/// A scaled bandwidth sample: finite and non-negative, or the row is bad.
double checked_bandwidth(double bw, const std::string& path,
                         std::size_t row) {
  if (!std::isfinite(bw) || bw < 0.0) {
    throw std::runtime_error("negative or non-finite bandwidth" +
                             where(path, row));
  }
  return bw;
}

/// Wraps the resampled samples, rejecting a trace that can never move a
/// byte or whose integral overflows.
BandwidthTrace make_trace(std::vector<double> samples, double dt,
                          const std::string& path) {
  double total = 0.0;
  for (const double v : samples) total += v * dt;
  if (!(total > 0.0)) throw std::runtime_error("all-zero trace in " + path);
  if (!std::isfinite(total)) {
    throw std::runtime_error("trace volume overflows in " + path);
  }
  return BandwidthTrace(std::move(samples), dt);
}

}  // namespace

BandwidthTrace load_trace_csv(const std::string& path,
                              const TraceLoadOptions& options) {
  if (!(std::isfinite(options.dt) && options.dt > 0.0)) {
    throw std::invalid_argument("dt must be positive and finite");
  }
  if (!(std::isfinite(options.scale) && options.scale > 0.0)) {
    throw std::invalid_argument("scale must be positive and finite");
  }
  const auto rows = read_csv(path);
  if (rows.empty()) throw std::runtime_error("empty trace file: " + path);

  std::size_t first = 0;
  {
    // Header row: first cell not numeric.
    double tmp;
    if (!parse_double(rows[0][0], tmp)) first = 1;
  }
  if (first >= rows.size()) {
    throw std::runtime_error("trace file has no data rows: " + path);
  }

  const bool timestamped = rows[first].size() >= 2;
  if (!timestamped) {
    std::vector<double> samples;
    samples.reserve(rows.size() - first);
    for (std::size_t i = first; i < rows.size(); ++i) {
      double bw;
      if (!parse_double(rows[i][0], bw)) {
        throw std::runtime_error("non-numeric bandwidth" + where(path, i));
      }
      samples.push_back(checked_bandwidth(bw * options.scale, path, i));
    }
    return make_trace(std::move(samples), options.dt, path);
  }

  // timestamp,bandwidth: piecewise-constant resample onto a uniform grid.
  std::vector<double> times;
  std::vector<double> values;
  for (std::size_t i = first; i < rows.size(); ++i) {
    double t, bw;
    if (rows[i].size() < 2 || !parse_double(rows[i][0], t) ||
        !parse_double(rows[i][1], bw)) {
      throw std::runtime_error("malformed row" + where(path, i));
    }
    if (!std::isfinite(t)) {
      throw std::runtime_error("non-finite timestamp" + where(path, i));
    }
    if (!times.empty() && t <= times.back()) {
      throw std::runtime_error("timestamps not strictly increasing in " +
                               path);
    }
    times.push_back(t);
    values.push_back(checked_bandwidth(bw * options.scale, path, i));
  }
  const double t0 = times.front();
  const double t1 = times.back();
  const double cells = std::max(1.0, std::floor((t1 - t0) / options.dt));
  if (!(cells <= static_cast<double>(kMaxTraceSamples))) {
    // Named at the last row, whose timestamp stretches the span.
    throw std::runtime_error("resample grid over " +
                             std::to_string(kMaxTraceSamples) + " samples" +
                             where(path, rows.size() - 1));
  }
  const auto n = static_cast<std::size_t>(cells);
  std::vector<double> samples(n);
  std::size_t src = 0;
  for (std::size_t j = 0; j < n; ++j) {
    const double t = t0 + (static_cast<double>(j) + 0.5) * options.dt;
    while (src + 1 < times.size() && times[src + 1] <= t) ++src;
    samples[j] = values[src];
  }
  return make_trace(std::move(samples), options.dt, path);
}

}  // namespace fedra
