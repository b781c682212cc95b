#include "telemetry/telemetry.hpp"

#include <cstdlib>
#include <fstream>
#include <memory>
#include <mutex>

#include "util/contracts.hpp"

namespace fedra::telemetry {

namespace {

// Global telemetry state. Registry and span buffer are function-local
// statics constructed on first touch and intentionally leaked via the
// static-duration idiom so atexit flushing and late worker-thread
// recording are both safe.
struct GlobalState {
  std::mutex mutex;           // guards config swaps and flush
  TelemetryConfig config;
  std::unique_ptr<SpanBuffer> spans;
  bool atexit_registered = false;
};

// Heap-allocated and never destroyed: the atexit flush and worker threads
// that outlive main() must be able to touch this state after static
// destruction has begun, so destruction order must never apply to it.
GlobalState& state() {
  static GlobalState* s = new GlobalState();
  return *s;
}

void flush_at_exit() { Telemetry::flush(); }

}  // namespace

std::atomic<bool>& Telemetry::enabled_flag() {
  static std::atomic<bool> flag{false};
  return flag;
}

MetricsRegistry& Telemetry::metrics() {
  // Immortal for the same reason as state(): handles bound in other
  // translation units' statics and the atexit flush may read it during
  // (or after) static destruction.
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

SpanBuffer& Telemetry::spans() {
  auto& s = state();
  std::lock_guard lock(s.mutex);
  if (!s.spans) s.spans = std::make_unique<SpanBuffer>();
  return *s.spans;
}

void Telemetry::enable(const TelemetryConfig& config) {
  auto& s = state();
  {
    std::lock_guard lock(s.mutex);
    s.config = config;
    if (!s.spans) s.spans = std::make_unique<SpanBuffer>();
    const bool wants_files =
        !config.jsonl_path.empty() || !config.chrome_trace_path.empty();
    if (wants_files && !s.atexit_registered) {
      std::atexit(flush_at_exit);
      s.atexit_registered = true;
    }
  }
  enabled_flag().store(true, std::memory_order_relaxed);
}

void Telemetry::disable() {
  enabled_flag().store(false, std::memory_order_relaxed);
}

void Telemetry::flush() {
  auto& s = state();
  std::lock_guard lock(s.mutex);
  if (s.config.jsonl_path.empty() && s.config.chrome_trace_path.empty()) {
    return;
  }
  const MetricsSnapshot metric_snap = metrics().snapshot();
  const std::vector<SpanRecord> span_snap =
      s.spans ? s.spans->snapshot() : std::vector<SpanRecord>{};
  if (!s.config.jsonl_path.empty()) {
    std::ofstream os(s.config.jsonl_path, std::ios::trunc);
    if (os) write_jsonl(os, metric_snap, span_snap);
  }
  if (!s.config.chrome_trace_path.empty()) {
    std::ofstream os(s.config.chrome_trace_path, std::ios::trunc);
    if (os) write_chrome_trace(os, span_snap);
  }
}

void Telemetry::reset() {
  metrics().reset_values();
  auto& s = state();
  std::lock_guard lock(s.mutex);
  if (s.spans) s.spans->clear();
}

void TraceSpan::finish() {
  const double end_us = now_us();
  const double dur_us = end_us - start_us_;
  if (live::flight_recorder_enabled()) {
    // The black box sees every span even with telemetry off; the context
    // was already restored, so stamp this span's own ids explicitly.
    live::ScopedTraceContext as_self({trace_id_, span_id_});
    live::record_flight(name_, start_us_, dur_us, live::FlightKind::kSpan);
  }
  if (!telemetry_on_) return;
  SpanRecord record;
  record.name = name_;
  record.start_us = start_us_;
  record.dur_us = dur_us;
  record.tid = current_thread_id();
  record.trace_id = trace_id_;
  record.span_id = span_id_;
  record.parent_span_id = prev_.span_id;
  Telemetry::spans().push(record);
  // Mirror into a duration histogram so span phases show up in metric
  // sinks even when the span buffer overflows.
  Telemetry::metrics().histogram(record.name).record(record.dur_us);
}

}  // namespace fedra::telemetry
