// fedra_report — the report tool for fedra's observability output. Two
// subcommands:
//
//   fedra_report phases <run.jsonl> [--top N] [--no-metrics] [--strict]
//   fedra_report html <run.ledger.jsonl> [--out report.html]
//                [--telemetry run.jsonl] [--title "my run"]
//
// `phases` reads a telemetry JSONL (the Telemetry facade's jsonl_path
// sink) and prints a per-phase wall-clock breakdown plus the fault,
// scheduler, live and metric tables. Unparseable lines are skipped,
// counted and reported on stderr; `--strict` turns any skipped line into
// exit 1 for CI use.
//
// `html` renders a run ledger (fedra.ledger.v1 JSONL, written by
// obs::RunLedger) into one self-contained HTML dashboard: stat tiles,
// per-round cost decomposition, a device-by-round heatmap with fault
// overlays, predicted-vs-realized cost, and straggler counts. With
// `--telemetry` it adds the per-phase wall-clock table, read by the same
// reader as `phases`, and shows how many telemetry lines it skipped. Torn
// ledger lines are skipped by the reader; the dashboard shows the count.
//
// Exit codes: 0 done, 1 I/O failure, a bad flag value (`--top` must be
// an integer >= 0) or a skipped line under --strict, 2 usage or a flag
// the subcommand does not take.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/attribution.hpp"
#include "obs/ledger.hpp"
#include "obs/report.hpp"
#include "obs/telemetry_log.hpp"
#include "util/argparse.hpp"

namespace {

using Series = std::vector<std::pair<std::string, double>>;

int usage() {
  std::fprintf(stderr,
               "usage: fedra_report phases <run.jsonl> [--top N] "
               "[--no-metrics] [--strict]\n"
               "       fedra_report html <run.ledger.jsonl> "
               "[--out report.html] [--telemetry run.jsonl] "
               "[--title TITLE]\n");
  return 2;
}

void print_phase_table(const std::string& path,
                       const std::vector<fedra::obs::PhaseRow>& phases,
                       std::size_t top) {
  if (phases.empty()) {
    std::printf("no span records in %s\n", path.c_str());
    return;
  }
  double grand_total = 0.0;
  for (const auto& p : phases) grand_total += p.total_us;
  std::vector<fedra::obs::PhaseRow> sorted = phases;
  std::sort(sorted.begin(), sorted.end(), [](const auto& a, const auto& b) {
    return a.total_us > b.total_us;
  });
  if (top > 0 && sorted.size() > top) sorted.resize(top);
  std::printf("== per-phase wall-clock breakdown (%s) ==\n", path.c_str());
  std::printf("%-24s %10s %14s %12s %12s %7s\n", "phase", "count",
              "total_ms", "mean_ms", "max_ms", "share");
  for (const auto& p : sorted) {
    std::printf("%-24s %10llu %14.3f %12.3f %12.3f %6.1f%%\n",
                p.name.c_str(), static_cast<unsigned long long>(p.count),
                p.total_us / 1e3,
                p.total_us / 1e3 / static_cast<double>(p.count),
                p.max_us / 1e3,
                grand_total > 0.0 ? 100.0 * p.total_us / grand_total : 0.0);
  }
}

// Fault/straggler summary: the sim.fault.* counters written by the
// simulator. Shown first — when a run had churn, this is what you look at.
void print_fault_summary(const Series& counters) {
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
// ThreadPool — total tasks, steals, idle wakeups, and the per-worker task
// counters (a skewed distribution here means the steal path is not
// balancing the load). pool.* counters are shown here, not in the generic
// counter dump.
void print_scheduler(const Series& counters) {
  double tasks = 0.0, steals = 0.0, wakeups = 0.0;
  bool have_tasks = false, have_steals = false, have_wakeups = false;
  Series worker_tasks;
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
  if (!have_tasks && !have_steals && !have_wakeups && worker_tasks.empty()) {
    return;
  }
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

// Live-plane summary: counters/gauges written by the embedded HTTP
// exporter and the flight recorder (live.http.scrapes bumps on every
// /metrics, /healthz, /statusz hit; live.recorder.dropped is the
// ring-overwrite count sampled at the last scrape). live.* series are
// shown here, not in the generic dumps.
void print_live(const Series& counters, const Series& gauges) {
  bool any = false;
  for (const Series* series : {&counters, &gauges}) {
    for (const auto& [name, v] : *series) {
      if (name.rfind("live.", 0) != 0) continue;
      if (!any) {
        std::printf("\n== live ==\n");
        any = true;
      }
      std::printf("%-28s %14.0f\n", name.c_str(), v);
    }
  }
}

void print_metrics(const fedra::obs::TelemetryLog& log) {
  if (!log.histograms.empty()) {
    std::printf("\n== histograms ==\n");
    std::printf("%-28s %10s %12s %12s %12s %12s %12s\n", "name", "count",
                "mean", "p50", "p90", "p99", "max");
    for (const auto& h : log.histograms) {
      std::printf("%-28s %10.0f %12.4g %12.4g %12.4g %12.4g %12.4g\n",
                  h.snap.name.c_str(), static_cast<double>(h.snap.count),
                  h.mean, h.p50, h.p90, h.p99, h.snap.max);
    }
    // Bucket-estimated percentile table: re-derives every quantile from
    // the raw geometric buckets with the snapshot's own interpolation, so
    // the two tables agreeing is a cross-check that the serialized buckets
    // are self-consistent with the precomputed fields — and the only
    // quantile source for logs lacking them.
    bool header = false;
    for (const auto& h : log.histograms) {
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
  for (const auto& [name, v] : log.counters) {
    if (name.rfind("pool.", 0) == 0) continue;  // shown in == scheduler ==
    if (name.rfind("live.", 0) == 0) continue;  // shown in == live ==
    if (!counters_header) {
      std::printf("\n== counters ==\n");
      counters_header = true;
    }
    std::printf("%-28s %14.0f\n", name.c_str(), v);
  }
  bool gauges_header = false;
  for (const auto& [name, v] : log.gauges) {
    if (name.rfind("live.", 0) == 0) continue;  // shown in == live ==
    if (!gauges_header) {
      std::printf("\n== gauges ==\n");
      gauges_header = true;
    }
    std::printf("%-28s %14.6g\n", name.c_str(), v);
  }
}

int run_phases(const fedra::ArgParser& args) {
  if (args.positionals().size() < 2) return usage();
  const std::string path = args.positionals()[1];
  const bool show_metrics = !args.flag("no-metrics");
  const bool strict = args.flag("strict");
  const std::int64_t top = args.get_int("top", 0);
  if (top < 0) {
    throw std::invalid_argument("--top must be an integer >= 0, not " +
                                std::to_string(top));
  }
  fedra::obs::TelemetryLog log;
  if (!fedra::obs::read_telemetry_log_file(path, log)) {
    std::fprintf(stderr, "fedra_report: cannot open %s\n", path.c_str());
    return 1;
  }
  print_phase_table(path, log.phases, static_cast<std::size_t>(top));
  print_fault_summary(log.counters);
  print_scheduler(log.counters);
  print_live(log.counters, log.gauges);
  if (show_metrics) print_metrics(log);
  if (log.skipped_lines > 0) {
    // Worded as the standalone telemetry_report tool printed it, so logs
    // and scripts that match this line keep working.
    std::fprintf(stderr, "telemetry_report: skipped %zu unparseable lines\n",
                 log.skipped_lines);
    if (strict) return 1;
  }
  return 0;
}

int run_html(const fedra::ArgParser& args) {
  if (args.positionals().size() < 2) return usage();
  const std::string ledger_path = args.positionals()[1];
  const std::string out_path = args.get("out", "report.html");
  const std::string telemetry_path = args.get("telemetry", "");

  fedra::obs::Ledger ledger;
  std::string error;
  if (!fedra::obs::read_ledger_file(ledger_path, ledger, &error)) {
    std::fprintf(stderr, "fedra_report: %s\n", error.c_str());
    return 1;
  }
  if (ledger.rounds.empty() && ledger.decisions.empty() &&
      ledger.fl_rounds.empty()) {
    std::fprintf(stderr, "fedra_report: %s holds no ledger records\n",
                 ledger_path.c_str());
    return 1;
  }

  fedra::obs::ReportOptions options;
  options.title = args.get(
      "title", ledger.run_id.empty() ? "fedra run report" : ledger.run_id);
  options.source_path = ledger_path;
  if (!telemetry_path.empty()) {
    fedra::obs::TelemetryLog log;
    if (!fedra::obs::read_telemetry_log_file(telemetry_path, log)) {
      std::fprintf(stderr, "fedra_report: cannot open %s\n",
                   telemetry_path.c_str());
      return 1;
    }
    options.phases = std::move(log.phases);
    options.telemetry_skipped = log.skipped_lines;
  }

  const fedra::obs::RunAttribution attribution =
      fedra::obs::attribute(ledger);
  const std::string html =
      fedra::obs::render_report_html(ledger, attribution, options);

  std::ofstream out(out_path, std::ios::binary);
  if (!out) {
    std::fprintf(stderr, "fedra_report: cannot write %s\n", out_path.c_str());
    return 1;
  }
  out << html;
  out.close();

  std::printf("fedra_report: %zu rounds, %zu decisions, %zu fl rounds",
              ledger.rounds.size(), ledger.decisions.size(),
              ledger.fl_rounds.size());
  if (ledger.parse_errors > 0) {
    std::printf(" (%zu torn lines skipped)", ledger.parse_errors);
  }
  std::printf(" -> %s\n", out_path.c_str());
  return 0;
}

struct Command {
  const char* name;
  int (*run)(const fedra::ArgParser&);
  std::vector<std::string> flags;
};

const std::vector<Command>& commands() {
  static const std::vector<Command> table = {
      {"phases", run_phases, {"top", "no-metrics", "strict"}},
      {"html", run_html, {"out", "telemetry", "title"}},
  };
  return table;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const fedra::ArgParser args(argc, argv);
    const std::string name =
        args.positionals().empty() ? "" : args.positionals().front();
    const Command* command = nullptr;
    for (const auto& c : commands()) {
      if (name == c.name) command = &c;
    }
    if (command == nullptr) return usage();
    const auto unknown = args.unknown_keys(command->flags);
    if (!unknown.empty()) {
      for (const auto& key : unknown) {
        std::fprintf(stderr, "fedra_report %s: unknown flag --%s\n",
                     name.c_str(), key.c_str());
      }
      return 2;
    }
    return command->run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fedra_report: %s\n", e.what());
    return 1;
  }
}
