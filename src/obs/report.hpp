// Renders a parsed run ledger (+ its attribution, + optional telemetry
// phase aggregates from obs::read_telemetry_log) into one self-contained
// HTML dashboard: stat tiles, per-round cost decomposition curves, a
// device-by-round timeline heatmap with fault overlays, a
// predicted-vs-actual cost scatter, and straggler counts.  Inline SVG + a small theme-toggle script; no external
// dependencies, so the file can be attached to an experiment log as-is.
//
// Pure string-in/string-out so tests can assert on the output without
// touching the filesystem; tools/fedra_report is a thin CLI wrapper.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "obs/attribution.hpp"
#include "obs/ledger.hpp"
#include "obs/telemetry_log.hpp"

namespace fedra::obs {

struct ReportOptions {
  std::string title = "fedra run report";
  std::string source_path;            ///< shown in the header, may be empty
  std::vector<PhaseRow> phases;       ///< optional telemetry breakdown table
  std::size_t telemetry_skipped = 0;  ///< telemetry lines the reader skipped
};

std::string render_report_html(const Ledger& ledger,
                               const RunAttribution& attribution,
                               const ReportOptions& options = {});

}  // namespace fedra::obs
