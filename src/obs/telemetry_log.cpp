#include "obs/telemetry_log.hpp"

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <map>

#include "obs/json_min.hpp"

namespace fedra::obs {
namespace {

// The numbers of a flat array member; empty when absent.
std::vector<double> number_array(const JsonValue& line, const char* key) {
  std::vector<double> out;
  const JsonValue* array = line.find(key);
  if (array == nullptr || !array->is_array()) return out;
  for (const auto& v : array->array) out.push_back(v.number_or(0.0));
  return out;
}

// Counts are written as integers; clamping keeps a hostile value from
// overflowing the conversion.
std::uint64_t to_count(double c) {
  return static_cast<std::uint64_t>(std::clamp(c, 0.0, 1e18));
}

/// False when the histogram line is malformed.
bool parse_histogram(const JsonValue& v, const std::string& name,
                     HistogramRow& row) {
  row.snap.name = name;
  row.snap.count = to_count(v.get_number("count"));
  row.snap.min = v.get_number("min");
  row.snap.max = v.get_number("max");
  row.snap.bounds = number_array(v, "bounds");
  for (double c : number_array(v, "bucket_counts")) {
    row.snap.counts.push_back(to_count(c));
  }
  // One more count than bounds (the overflow bucket), or no buckets.
  if (!row.snap.counts.empty() &&
      row.snap.counts.size() != row.snap.bounds.size() + 1) {
    return false;
  }
  row.mean = v.get_number("mean");
  // Older logs without the precomputed quantile fields: estimate from the
  // geometric buckets instead of reporting zeros.
  const JsonValue* p50 = v.find("p50");
  const bool estimate =
      (p50 == nullptr || !p50->is_number()) && !row.snap.counts.empty();
  row.p50 = estimate ? row.snap.percentile(50.0) : v.get_number("p50");
  row.p90 = estimate ? row.snap.percentile(90.0) : v.get_number("p90");
  row.p99 = estimate ? row.snap.percentile(99.0) : v.get_number("p99");
  return true;
}

}  // namespace

TelemetryLog read_telemetry_log(std::istream& in) {
  TelemetryLog log;
  std::map<std::string, PhaseRow> phases;
  std::string line;
  while (std::getline(in, line)) {
    // Strip the trailing \r of CRLF files before the torn-line check.
    while (!line.empty() && (line.back() == '\r' || line.back() == ' ')) {
      line.pop_back();
    }
    if (line.empty()) continue;
    // A sink line is exactly one JSON object. A torn write (crashed run,
    // interleaved appends) loses the tail or splices two objects; both
    // fail the parse and are skipped.
    JsonValue v;
    if (!parse_json(line, v) || !v.is_object()) {
      ++log.skipped_lines;
      continue;
    }
    const JsonValue* type_v = v.find("type");
    const JsonValue* name_v = v.find("name");
    if (type_v == nullptr || !type_v->is_string() || name_v == nullptr ||
        !name_v->is_string()) {
      ++log.skipped_lines;
      continue;
    }
    const std::string& type = type_v->str;
    const std::string& name = name_v->str;
    if (type == "span") {
      const JsonValue* dur_v = v.find("dur_us");
      if (dur_v == nullptr || !dur_v->is_number()) {
        ++log.skipped_lines;
        continue;
      }
      PhaseRow& row = phases[name];
      row.name = name;
      ++row.count;
      row.total_us += dur_v->number;
      row.max_us = std::max(row.max_us, dur_v->number);
    } else if (type == "counter") {
      log.counters.emplace_back(name, v.get_number("value"));
    } else if (type == "gauge") {
      log.gauges.emplace_back(name, v.get_number("value"));
    } else if (type == "histogram") {
      HistogramRow row;
      if (parse_histogram(v, name, row)) {
        log.histograms.push_back(std::move(row));
      } else {
        ++log.skipped_lines;
      }
    } else {
      ++log.skipped_lines;
    }
  }
  log.phases.reserve(phases.size());
  for (auto& [name, row] : phases) log.phases.push_back(std::move(row));
  return log;
}

bool read_telemetry_log_file(const std::string& path, TelemetryLog& out) {
  std::ifstream in(path);
  if (!in) return false;
  out = read_telemetry_log(in);
  return true;
}

}  // namespace fedra::obs
