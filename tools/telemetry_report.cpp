// telemetry_report — reads a telemetry JSONL file (the Telemetry facade's
// jsonl_path sink) and prints a per-phase wall-clock breakdown plus the
// metric tables. Usage:
//
//   telemetry_report <run.jsonl> [--top N] [--no-metrics] [--strict]
//
// Each line is parsed with the shared JSON reader (obs::parse_json).
// Truncated or interleaved lines (torn writes from a crashed or concurrent
// run) and lines without a string "type" and "name" are skipped and
// counted; the report still renders from whatever parsed. `--strict` turns
// any skipped line into a nonzero exit for CI use.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "obs/json_min.hpp"
#include "telemetry/metrics.hpp"
#include "util/argparse.hpp"

namespace {

struct PhaseAgg {
  std::uint64_t count = 0;
  double total_us = 0.0;
  double max_us = 0.0;
};

// A histogram line: its buckets rebuilt as a snapshot (name, bounds,
// counts, count, min, max) plus the fields the writer precomputed.
struct HistRow {
  fedra::telemetry::HistogramSnapshot snap;
  double mean = 0.0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
};

// The numbers of a flat array member; empty when absent.
std::vector<double> number_array(const fedra::obs::JsonValue& line,
                                 const char* key) {
  std::vector<double> out;
  const fedra::obs::JsonValue* array = line.find(key);
  if (array == nullptr || !array->is_array()) return out;
  for (const auto& v : array->array) out.push_back(v.number_or(0.0));
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  fedra::ArgParser args(argc, argv);
  const bool show_metrics = !args.flag("no-metrics");
  const bool strict = args.flag("strict");
  const auto top = static_cast<std::size_t>(args.get_int("top", 0));
  if (args.positionals().empty()) {
    std::fprintf(stderr,
                 "usage: telemetry_report <run.jsonl> [--top N] "
                 "[--no-metrics] [--strict]\n");
    return 2;
  }
  const std::string path = args.positionals().front();
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "telemetry_report: cannot open %s\n", path.c_str());
    return 1;
  }

  std::map<std::string, PhaseAgg> phases;
  std::vector<std::pair<std::string, double>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  std::vector<HistRow> histograms;
  std::size_t bad_lines = 0;

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
    fedra::obs::JsonValue v;
    if (!fedra::obs::parse_json(line, v) || !v.is_object()) {
      ++bad_lines;
      continue;
    }
    const fedra::obs::JsonValue* type_v = v.find("type");
    const fedra::obs::JsonValue* name_v = v.find("name");
    if (type_v == nullptr || !type_v->is_string() || name_v == nullptr ||
        !name_v->is_string()) {
      ++bad_lines;
      continue;
    }
    const std::string& type = type_v->str;
    const std::string& name = name_v->str;
    if (type == "span") {
      const fedra::obs::JsonValue* dur_v = v.find("dur_us");
      if (dur_v == nullptr || !dur_v->is_number()) {
        ++bad_lines;
        continue;
      }
      const double dur = dur_v->number;
      auto& agg = phases[name];
      ++agg.count;
      agg.total_us += dur;
      agg.max_us = std::max(agg.max_us, dur);
    } else if (type == "counter") {
      counters.emplace_back(name, v.get_number("value"));
    } else if (type == "gauge") {
      gauges.emplace_back(name, v.get_number("value"));
    } else if (type == "histogram") {
      // Counts are written as integers; clamping keeps a hostile value
      // from overflowing the conversion.
      auto to_count = [](double c) {
        return static_cast<std::uint64_t>(std::clamp(c, 0.0, 1e18));
      };
      HistRow row;
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
        ++bad_lines;
        continue;
      }
      row.mean = v.get_number("mean");
      // Older logs without the precomputed quantile fields: estimate
      // from the geometric buckets instead of printing zeros.
      const fedra::obs::JsonValue* p50 = v.find("p50");
      const bool estimate = (p50 == nullptr || !p50->is_number()) &&
                            !row.snap.counts.empty();
      row.p50 = estimate ? row.snap.percentile(50.0) : v.get_number("p50");
      row.p90 = estimate ? row.snap.percentile(90.0) : v.get_number("p90");
      row.p99 = estimate ? row.snap.percentile(99.0) : v.get_number("p99");
      histograms.push_back(std::move(row));
    } else {
      ++bad_lines;
    }
  }

  if (!phases.empty()) {
    double grand_total = 0.0;
    for (const auto& [name, agg] : phases) grand_total += agg.total_us;
    std::vector<std::pair<std::string, PhaseAgg>> sorted(phases.begin(),
                                                         phases.end());
    std::sort(sorted.begin(), sorted.end(),
              [](const auto& a, const auto& b) {
                return a.second.total_us > b.second.total_us;
              });
    if (top > 0 && sorted.size() > top) sorted.resize(top);
    std::printf("== per-phase wall-clock breakdown (%s) ==\n", path.c_str());
    std::printf("%-24s %10s %14s %12s %12s %7s\n", "phase", "count",
                "total_ms", "mean_ms", "max_ms", "share");
    for (const auto& [name, agg] : sorted) {
      std::printf("%-24s %10llu %14.3f %12.3f %12.3f %6.1f%%\n",
                  name.c_str(),
                  static_cast<unsigned long long>(agg.count),
                  agg.total_us / 1e3,
                  agg.total_us / 1e3 / static_cast<double>(agg.count),
                  agg.max_us / 1e3,
                  grand_total > 0.0 ? 100.0 * agg.total_us / grand_total
                                    : 0.0);
    }
  } else {
    std::printf("no span records in %s\n", path.c_str());
  }

  // Fault/straggler summary: the sim.fault.* counters written by the
  // simulator and the fl.* delivery counters written by FedAvg. Shown
  // first — when a run had churn, this is what you look at.
  {
    auto find = [&](const std::string& name, double& out) {
      for (const auto& [n, v] : counters) {
        if (n == name) {
          out = v;
          return true;
        }
      }
      return false;
    };
    double iterations = 0.0;
    find("sim.iterations", iterations);
    struct FaultRow {
      const char* name;
      const char* what;
    };
    const FaultRow rows[] = {
        {"sim.fault.dropped_devices", "mid-round dropouts"},
        {"sim.fault.timeouts", "deadline timeouts"},
        {"sim.fault.crashes", "whole-round crashes"},
        {"sim.fault.upload_failures", "uploads lost (retries exhausted)"},
        {"sim.fault.retries", "upload retries"},
        {"sim.fault.partial_rounds", "partial rounds"},
        {"fl.lost_updates", "FedAvg updates lost"},
        {"fl.partial_rounds", "FedAvg partial aggregations"},
        {"fl.wasted_rounds", "FedAvg wasted rounds (nothing arrived)"},
    };
    bool any = false;
    for (const auto& row : rows) {
      double v = 0.0;
      if (!find(row.name, v)) continue;
      if (!any) {
        std::printf("\n== fault summary ==\n");
        any = true;
      }
      std::printf("%-28s %14.0f  %s", row.name, v, row.what);
      if (iterations > 0.0 &&
          std::string(row.name) == "sim.fault.partial_rounds") {
        std::printf(" (%.1f%% of %.0f rounds)", 100.0 * v / iterations,
                    iterations);
      }
      std::printf("\n");
    }
  }

  // Scheduler summary: the pool.* counters written by the work-stealing
  // ThreadPool — total tasks, steals, idle wakeups, and the per-worker
  // task counters (a skewed distribution here means the steal path is not
  // balancing the load). pool.* counters are shown here, not in the
  // generic counter dump below.
  {
    double tasks = 0.0, steals = 0.0, wakeups = 0.0;
    bool have_tasks = false, have_steals = false, have_wakeups = false;
    std::vector<std::pair<std::string, double>> worker_tasks;
    for (const auto& [name, v] : counters) {
      if (name == "pool.tasks") {
        tasks = v;
        have_tasks = true;
      } else if (name == "pool.steal_count") {
        steals = v;
        have_steals = true;
      } else if (name == "pool.idle_wakeups") {
        wakeups = v;
        have_wakeups = true;
      } else if (name.rfind("pool.worker.", 0) == 0) {
        worker_tasks.emplace_back(name, v);
      }
    }
    if (have_tasks || have_steals || have_wakeups || !worker_tasks.empty()) {
      std::printf("\n== scheduler ==\n");
      if (have_tasks) std::printf("%-28s %14.0f\n", "pool.tasks", tasks);
      if (have_steals) {
        std::printf("%-28s %14.0f", "pool.steal_count", steals);
        if (tasks > 0.0) std::printf("  (%.1f%% of tasks)", 100.0 * steals / tasks);
        std::printf("\n");
      }
      if (have_wakeups) {
        std::printf("%-28s %14.0f\n", "pool.idle_wakeups", wakeups);
      }
      std::sort(worker_tasks.begin(), worker_tasks.end());
      for (const auto& [name, v] : worker_tasks) {
        std::printf("%-28s %14.0f", name.c_str(), v);
        if (tasks > 0.0) std::printf("  (%.1f%% of tasks)", 100.0 * v / tasks);
        std::printf("\n");
      }
    }
  }

  // Live-plane summary: counters/gauges written by the embedded HTTP
  // exporter and the flight recorder (live.http.scrapes bumps on every
  // /metrics, /healthz, /statusz hit; live.recorder.dropped is the
  // ring-overwrite count sampled at the last scrape). live.* series are
  // shown here, not in the generic dumps below.
  {
    bool any = false;
    auto live_row = [&](const std::string& name, double v) {
      if (!any) {
        std::printf("\n== live ==\n");
        any = true;
      }
      std::printf("%-28s %14.0f\n", name.c_str(), v);
    };
    for (const auto& [name, v] : counters) {
      if (name.rfind("live.", 0) == 0) live_row(name, v);
    }
    for (const auto& [name, v] : gauges) {
      if (name.rfind("live.", 0) == 0) live_row(name, v);
    }
  }

  if (show_metrics) {
    if (!histograms.empty()) {
      std::printf("\n== histograms ==\n");
      std::printf("%-28s %10s %12s %12s %12s %12s %12s\n", "name", "count",
                  "mean", "p50", "p90", "p99", "max");
      for (const auto& h : histograms) {
        std::printf("%-28s %10.0f %12.4g %12.4g %12.4g %12.4g %12.4g\n",
                    h.snap.name.c_str(), static_cast<double>(h.snap.count),
                    h.mean, h.p50, h.p90, h.p99, h.snap.max);
      }
      // Bucket-estimated percentile table: re-derives every quantile from
      // the raw geometric buckets with the snapshot's own interpolation, so
      // the two tables agreeing is a cross-check that the serialized
      // buckets are self-consistent with the precomputed fields — and the
      // only quantile source for logs lacking them.
      bool header = false;
      for (const auto& h : histograms) {
        if (h.snap.counts.empty()) continue;
        if (!header) {
          std::printf("\n== percentiles (bucket-estimated) ==\n");
          std::printf("%-28s %10s %12s %12s %12s %12s\n", "name", "buckets",
                      "p50", "p90", "p99", "p99.9");
          header = true;
        }
        std::printf("%-28s %10zu %12.4g %12.4g %12.4g %12.4g\n",
                    h.snap.name.c_str(), h.snap.counts.size(),
                    h.snap.percentile(50.0), h.snap.percentile(90.0),
                    h.snap.percentile(99.0), h.snap.percentile(99.9));
      }
    }
    bool counters_header = false;
    for (const auto& [name, v] : counters) {
      if (name.rfind("pool.", 0) == 0) continue;  // shown in == scheduler ==
      if (name.rfind("live.", 0) == 0) continue;  // shown in == live ==
      if (!counters_header) {
        std::printf("\n== counters ==\n");
        counters_header = true;
      }
      std::printf("%-28s %14.0f\n", name.c_str(), v);
    }
    bool gauges_header = false;
    for (const auto& [name, v] : gauges) {
      if (name.rfind("live.", 0) == 0) continue;  // shown in == live ==
      if (!gauges_header) {
        std::printf("\n== gauges ==\n");
        gauges_header = true;
      }
      std::printf("%-28s %14.6g\n", name.c_str(), v);
    }
  }
  if (bad_lines > 0) {
    std::fprintf(stderr, "telemetry_report: skipped %zu unparseable lines\n",
                 bad_lines);
    if (strict) return 1;
  }
  return 0;
}
