// Telemetry exporters. All three consume the same immutable snapshot
// types (MetricsSnapshot + a vector of SpanRecords), so sinks never touch
// live atomics and a flush is a consistent-enough point-in-time view.
// Numbers are written with the obs JSON writer's shortest round-trip
// form, so every reader recovers the recorded doubles bit-exactly.
//
//   - write_jsonl: one JSON object per line — counters, gauges,
//     histograms (with bucket arrays and percentile estimates), then one
//     line per span. obs::read_telemetry_log reads it back
//     (`fedra_report phases`, the phase card of `fedra_report html`).
//   - write_chrome_trace: the Chrome trace-event format ("X" complete
//     events); load the file at chrome://tracing or ui.perfetto.dev.
//   - write_prometheus: Prometheus text exposition format 0.0.4 —
//     `# HELP`/`# TYPE` headers per metric, counters/gauges as single
//     samples, histograms as cumulative `_bucket{le=...}` series plus
//     `_sum`/`_count`, names sanitized to the [a-zA-Z0-9_:] metric-name
//     alphabet (HELP carries the original unsanitized name).
#pragma once

#include <ostream>
#include <string>
#include <vector>

#include "telemetry/metrics.hpp"
#include "telemetry/span.hpp"

namespace fedra::telemetry {

void write_jsonl(std::ostream& os, const MetricsSnapshot& metrics,
                 const std::vector<SpanRecord>& spans);

void write_chrome_trace(std::ostream& os,
                        const std::vector<SpanRecord>& spans);

/// Prometheus text exposition (scrape) format. Spans are not exported —
/// every TraceSpan already feeds a duration histogram of the same name.
void write_prometheus(std::ostream& os, const MetricsSnapshot& metrics);

/// Maps an arbitrary metric name onto the Prometheus metric-name alphabet
/// ([a-zA-Z0-9_:], not starting with a digit): every other byte becomes
/// '_' ("sim.iter_time_s" -> "sim_iter_time_s").
std::string prometheus_sanitize(const std::string& name);

/// Escapes `\` and newline for Prometheus `# HELP` text.
std::string prometheus_escape_help(const std::string& text);

}  // namespace fedra::telemetry
