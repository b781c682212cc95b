#include "telemetry/sinks.hpp"

#include "obs/json_min.hpp"

namespace fedra::telemetry {

namespace {

using obs::JsonObject;

std::string fmt_double(double v) {
  std::string out;
  obs::json_append_double(out, v);
  return out;
}

/// Writes the JSON assembled so far to `os` and empties the buffer, so a
/// flush holds one record in memory, not the whole file.
void drain(std::ostream& os, std::string& out) {
  os.write(out.data(), static_cast<std::streamsize>(out.size()));
  out.clear();
}

}  // namespace

void write_jsonl(std::ostream& os, const MetricsSnapshot& metrics,
                 const std::vector<SpanRecord>& spans) {
  std::string out;
  for (const auto& [name, value] : metrics.counters) {
    JsonObject o(out);
    o.str("type", "counter").str("name", name).u64("value", value);
    o.close();
    out += '\n';
    drain(os, out);
  }
  for (const auto& [name, value] : metrics.gauges) {
    JsonObject o(out);
    o.str("type", "gauge").str("name", name).num("value", value);
    o.close();
    out += '\n';
    drain(os, out);
  }
  for (const auto& h : metrics.histograms) {
    JsonObject o(out);
    o.str("type", "histogram")
        .str("name", h.name)
        .u64("count", h.count)
        .num("sum", h.sum)
        .num("min", h.min)
        .num("max", h.max)
        .num("mean", h.mean())
        .num("p50", h.percentile(50.0))
        .num("p90", h.percentile(90.0))
        .num("p99", h.percentile(99.0))
        .nums("bounds", h.bounds);
    o.member("bucket_counts") += '[';
    for (std::size_t i = 0; i < h.counts.size(); ++i) {
      if (i > 0) out += ',';
      obs::json_append_u64(out, h.counts[i]);
    }
    out += ']';
    o.close();
    out += '\n';
    drain(os, out);
  }
  for (const auto& s : spans) {
    JsonObject o(out);
    o.str("type", "span")
        .str("name", s.name)
        .num("ts_us", s.start_us)
        .num("dur_us", s.dur_us)
        .u64("tid", s.tid);
    if (s.trace_id != 0) {
      o.hex("trace_id", s.trace_id)
          .hex("span_id", s.span_id)
          .hex("parent_span_id", s.parent_span_id);
    }
    o.close();
    out += '\n';
    drain(os, out);
  }
}

void write_chrome_trace(std::ostream& os,
                        const std::vector<SpanRecord>& spans) {
  std::string out;
  JsonObject doc(out);
  doc.str("displayTimeUnit", "ms");
  doc.member("traceEvents") += '[';
  bool first = true;
  for (const auto& s : spans) {
    if (!first) out += ',';
    first = false;
    JsonObject e(out);
    e.str("name", s.name)
        .str("cat", "fedra")
        .str("ph", "X")
        .u64("pid", 1)
        .u64("tid", s.tid)
        .num("ts", s.start_us)
        .num("dur", s.dur_us);
    if (s.trace_id != 0) {
      // The causal annotations: every span of one serve request / sweep
      // arm carries the same trace id even when rows complete on the
      // batcher thread and the client blocked elsewhere.
      JsonObject args(e.member("args"));
      args.hex("trace_id", s.trace_id)
          .hex("span_id", s.span_id)
          .hex("parent_span_id", s.parent_span_id);
      args.close();
    }
    e.close();
    drain(os, out);
  }
  out += ']';
  doc.close();
  out += '\n';
  drain(os, out);
}

std::string prometheus_escape_help(const std::string& text) {
  // Exposition-format HELP escaping: backslash and newline only.
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

std::string prometheus_sanitize(const std::string& name) {
  std::string out;
  out.reserve(name.size() + 1);
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out.push_back(ok ? c : '_');
  }
  if (out.empty() || (out[0] >= '0' && out[0] <= '9')) {
    out.insert(out.begin(), '_');
  }
  return out;
}

void write_prometheus(std::ostream& os, const MetricsSnapshot& metrics) {
  for (const auto& [name, value] : metrics.counters) {
    const std::string n = prometheus_sanitize(name);
    os << "# HELP " << n << " fedra metric " << prometheus_escape_help(name)
       << '\n';
    os << "# TYPE " << n << " counter\n" << n << ' ' << value << '\n';
  }
  for (const auto& [name, value] : metrics.gauges) {
    const std::string n = prometheus_sanitize(name);
    os << "# HELP " << n << " fedra metric " << prometheus_escape_help(name)
       << '\n';
    os << "# TYPE " << n << " gauge\n" << n << ' ' << fmt_double(value)
       << '\n';
  }
  for (const auto& h : metrics.histograms) {
    const std::string n = prometheus_sanitize(h.name);
    os << "# HELP " << n << " fedra metric " << prometheus_escape_help(h.name)
       << '\n';
    os << "# TYPE " << n << " histogram\n";
    // Exposition buckets are CUMULATIVE, unlike the per-bucket counts the
    // registry stores; the +Inf bucket always equals the total count.
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < h.bounds.size(); ++i) {
      cumulative += i < h.counts.size() ? h.counts[i] : 0;
      os << n << "_bucket{le=\"" << fmt_double(h.bounds[i]) << "\"} "
         << cumulative << '\n';
    }
    os << n << "_bucket{le=\"+Inf\"} " << h.count << '\n';
    os << n << "_sum " << fmt_double(h.sum) << '\n';
    os << n << "_count " << h.count << '\n';
  }
}

}  // namespace fedra::telemetry
