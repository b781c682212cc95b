#include "result.hpp"

#include <charconv>
#include <cmath>

namespace bench_e2e {

namespace {

// Names, units and fingerprint strings are produced by the benchmark
// itself, but a compiler id could carry a quote; escape the JSON specials.
std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  out += '"';
  return out;
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    " + quoted(m.name) + ": {\"value\": " + json_number(m.value) +
           ", \"unit\": " + quoted(m.unit) +
           ", \"samples\": " + std::to_string(m.samples);
    if (!m.detail.empty()) out += ", \"detail\": " + quoted(m.detail);
    out += "}";
  }
  out += metrics.empty() ? "}" : "\n  }";
  return out;
}

}  // namespace

bool Result::correct() const {
  if (failed != 0) return false;
  for (const Check& c : checks) {
    if (!c.ok) return false;
  }
  return true;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

std::string fingerprint_json(const Fingerprint& f) {
  std::string out = "{";
  out += "\"nproc\": " + std::to_string(f.nproc);
  out += ", \"pool_workers\": " + std::to_string(f.pool_workers);
  out += ", \"threads_used\": " + std::to_string(f.threads_used);
  out += ", \"global_pool\": " + std::to_string(f.global_pool);
  out += ", \"extra_threads\": " + std::to_string(f.extra_threads);
  out += ", \"simd_tier\": " + quoted(f.simd_tier);
  out += ", \"compiler\": " + quoted(f.compiler);
  out += ", \"build_type\": " + quoted(f.build_type);
  out += "}";
  return out;
}

std::string result_json(const Result& r) {
  std::string out = "{\n";
  out += "  \"schema\": \"fedra.bench.e2e.v1\",\n";
  out += "  \"workload\": " + quoted(r.workload) + ",\n";
  out += "  \"seed\": " + std::to_string(r.seed) + ",\n";
  out += "  \"seconds\": " + std::to_string(r.seconds) + ",\n";
  out += "  \"trace\": " + std::string(r.trace ? "true" : "false") + ",\n";
  out += "  \"fingerprint\": " + fingerprint_json(r.fingerprint) + ",\n";
  out += "  \"correct\": " + std::string(r.correct() ? "true" : "false") +
         ",\n";
  out += "  \"attempted\": " + std::to_string(r.attempted) + ",\n";
  out += "  \"failed\": " + std::to_string(r.failed) + ",\n";
  out += "  \"checks\": {";
  for (std::size_t i = 0; i < r.checks.size(); ++i) {
    out += (i == 0 ? "" : ", ") + quoted(r.checks[i].name) + ": " +
           (r.checks[i].ok ? "true" : "false");
  }
  out += "},\n";
  out += "  \"metrics\": " + metrics_json(r.metrics) + ",\n";
  out += "  \"info\": " + metrics_json(r.info) + "\n";
  out += "}\n";
  return out;
}

std::string summary_line(const Result& r) {
  std::string out = "{\"correct\": ";
  out += r.correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r.attempted);
  out += ", \"failed\": " + std::to_string(r.failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    out += (i == 0 ? "" : ", ") + quoted(m.name) +
           ": {\"value\": " + json_number(m.value) +
           ", \"unit\": " + quoted(m.unit) + "}";
  }
  out += "}}";
  return out;
}

}  // namespace bench_e2e
