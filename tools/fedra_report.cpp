// fedra_report — renders a run ledger (fedra.ledger.v1 JSONL, written by
// obs::RunLedger) into one self-contained HTML dashboard: stat tiles,
// per-round cost decomposition, a device-by-round heatmap with fault
// overlays, predicted-vs-realized cost, and straggler counts. Optionally
// folds in a telemetry JSONL (the Telemetry facade's sink) as a per-phase
// wall-clock table. Usage:
//
//   fedra_report <run.ledger.jsonl> [--out report.html]
//                [--telemetry run.jsonl] [--title "my run"]
//
// Exit codes: 0 rendered, 1 I/O failure, 2 usage. Torn ledger lines are
// skipped by the reader; the dashboard shows the skipped count.
#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "obs/attribution.hpp"
#include "obs/json_min.hpp"
#include "obs/ledger.hpp"
#include "obs/report.hpp"
#include "util/argparse.hpp"

namespace {

// Aggregates the span lines of a telemetry JSONL into per-name phase rows.
// Non-span and unparseable lines are ignored — the ledger is the source of
// truth here; the telemetry file only adds the phase table. Returns false
// when the file cannot be opened.
bool read_phases(const std::string& path,
                 std::vector<fedra::obs::PhaseRow>& out) {
  std::ifstream in(path);
  if (!in) return false;
  std::map<std::string, fedra::obs::PhaseRow> agg;
  std::string line;
  while (std::getline(in, line)) {
    fedra::obs::JsonValue v;
    if (!fedra::obs::parse_json(line, v) || !v.is_object()) continue;
    if (v.get_string("type") != "span") continue;
    const std::string name = v.get_string("name");
    if (name.empty()) continue;
    auto& row = agg[name];
    row.name = name;
    ++row.count;
    const double dur = v.get_number("dur_us");
    row.total_us += dur;
    if (dur > row.max_us) row.max_us = dur;
  }
  out.clear();
  out.reserve(agg.size());
  for (auto& [name, row] : agg) out.push_back(std::move(row));
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  fedra::ArgParser args(argc, argv);
  if (args.positionals().empty()) {
    std::fprintf(stderr,
                 "usage: fedra_report <run.ledger.jsonl> [--out report.html] "
                 "[--telemetry run.jsonl] [--title TITLE]\n");
    return 2;
  }
  const std::string ledger_path = args.positionals().front();
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
  if (!telemetry_path.empty() &&
      !read_phases(telemetry_path, options.phases)) {
    std::fprintf(stderr, "fedra_report: cannot open %s\n",
                 telemetry_path.c_str());
    return 1;
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
