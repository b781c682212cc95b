// Reader for the telemetry JSONL that telemetry::write_jsonl produces
// (the Telemetry facade's jsonl_path sink). `fedra_report phases` prints
// it; `fedra_report html --telemetry` folds its phases into the dashboard.
// Both go through this one reader, so they accept and skip the same lines.
#pragma once

#include <cstddef>
#include <istream>
#include <string>
#include <utility>
#include <vector>

#include "telemetry/metrics.hpp"

namespace fedra::obs {

/// One span name aggregated over every span line that carries it.
struct PhaseRow {
  std::string name;
  std::size_t count = 0;
  double total_us = 0.0;
  double max_us = 0.0;
};

/// A histogram line: its buckets rebuilt as a snapshot (name, bounds,
/// counts, count, min, max) plus the quantiles the writer precomputed.
struct HistogramRow {
  telemetry::HistogramSnapshot snap;
  double mean = 0.0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
};

struct TelemetryLog {
  std::vector<PhaseRow> phases;  ///< sorted by name
  std::vector<std::pair<std::string, double>> counters;  ///< file order
  std::vector<std::pair<std::string, double>> gauges;    ///< file order
  std::vector<HistogramRow> histograms;                  ///< file order
  /// Lines skipped: torn or unparseable, no string "type" and "name", a
  /// span without a numeric "dur_us", a histogram whose bucket counts do
  /// not number its bounds + 1, or an unknown type. Blank lines are not
  /// counted.
  std::size_t skipped_lines = 0;
};

/// Parses a telemetry JSONL stream. Never throws.
TelemetryLog read_telemetry_log(std::istream& in);

/// File wrapper; returns false only when the file cannot be opened.
bool read_telemetry_log_file(const std::string& path, TelemetryLog& out);

}  // namespace fedra::obs
