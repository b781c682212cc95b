// Process-wide telemetry facade.
//
// Telemetry is DISABLED by default and every instrumentation primitive
// (TraceSpan, ScopedTimer, FEDRA_TELEMETRY_IF) keys off one relaxed
// atomic load, so instrumented hot paths cost one predictable branch
// when off — no clock reads, no registration, no locks. Executables opt
// in at startup:
//
//   telemetry::TelemetryConfig cfg;
//   cfg.jsonl_path = "run.jsonl";              // metrics + span events
//   cfg.chrome_trace_path = "run.trace.json";  // chrome://tracing spans
//   telemetry::Telemetry::enable(cfg);
//   ...
//   telemetry::Telemetry::flush();             // also runs at exit
//
// Instrumentation sites use lazily-bound handles:
//
//   FEDRA_TELEMETRY_IF {
//     static auto c = telemetry::Telemetry::metrics().counter("sim.iters");
//     c.add();
//   }
//   FEDRA_TRACE_SPAN("ppo_update");  // RAII span for the enclosing scope
#pragma once

#include <string>

#include "live/flight_recorder.hpp"
#include "live/trace_context.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/sinks.hpp"
#include "telemetry/span.hpp"

namespace fedra::telemetry {

struct TelemetryConfig {
  std::string jsonl_path;         ///< "" = keep metrics in memory only
  std::string chrome_trace_path;  ///< "" = no chrome trace export
};

class Telemetry {
 public:
  /// The one branch every instrumentation site pays when telemetry is off.
  static bool enabled() {
    return enabled_flag().load(std::memory_order_relaxed);
  }

  /// Turns collection on. Sink paths are written by flush(); an atexit
  /// flush is registered on the first enable with any sink path set.
  static void enable(const TelemetryConfig& config = {});
  static void disable();

  static MetricsRegistry& metrics();
  static SpanBuffer& spans();

  /// Writes the JSONL metrics/span file and the Chrome trace file (for
  /// whichever paths are configured). Safe to call repeatedly; each call
  /// rewrites the files from the current state.
  static void flush();

  /// Clears metric values and the span buffer (handles stay valid).
  static void reset();

 private:
  static std::atomic<bool>& enabled_flag();
};

/// RAII span: records [construction, destruction) of the enclosing scope
/// into the global span buffer and a `<name>` duration histogram. `name`
/// must be a string literal (stored by pointer).
///
/// A live span also participates in trace-context propagation: it
/// derives its trace id from the thread's live::TraceContext (opening a
/// fresh trace when there is none), installs itself as the context's
/// current span for the scope, and restores the previous context on
/// exit. When only the flight recorder is on (telemetry off), the span
/// still times itself and records a ring slot, but touches no buffer or
/// histogram — so the always-on black box never allocates.
class TraceSpan {
 public:
  explicit TraceSpan(const char* name) {
    telemetry_on_ = Telemetry::enabled();
    if (telemetry_on_ || live::flight_recorder_enabled()) {
      name_ = name;
      start_us_ = now_us();
      live::TraceContext& ctx = live::current_trace_context();
      prev_ = ctx;
      trace_id_ = ctx.trace_id != 0 ? ctx.trace_id : live::next_trace_id();
      span_id_ = live::next_trace_id();
      ctx = {trace_id_, span_id_};
    }
  }
  ~TraceSpan() {
    if (name_ != nullptr) {
      live::current_trace_context() = prev_;
      finish();
    }
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  void finish();

  const char* name_ = nullptr;  ///< nullptr = nothing observing at entry
  double start_us_ = 0.0;
  bool telemetry_on_ = false;
  std::uint64_t trace_id_ = 0;
  std::uint64_t span_id_ = 0;
  live::TraceContext prev_;  ///< context to restore (prev_.span_id = parent)
};

/// RAII timer: records the scope duration (microseconds) into a caller-
/// provided histogram handle; no span record, so it is safe at minibatch
/// or per-task frequency.
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram hist) {
    if (Telemetry::enabled() && hist.valid()) {
      hist_ = hist;
      start_us_ = now_us();
      active_ = true;
    }
  }
  ~ScopedTimer() {
    if (active_) hist_.record(now_us() - start_us_);
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Histogram hist_;
  double start_us_ = 0.0;
  bool active_ = false;
};

}  // namespace fedra::telemetry

// Guard for metric updates: the body (handle binding + atomic bump) runs
// only when telemetry is enabled.
#define FEDRA_TELEMETRY_IF if (::fedra::telemetry::Telemetry::enabled())

#define FEDRA_TELEMETRY_CONCAT_IMPL_(a, b) a##b
#define FEDRA_TELEMETRY_CONCAT_(a, b) FEDRA_TELEMETRY_CONCAT_IMPL_(a, b)

/// Declares an RAII span covering the rest of the enclosing scope.
#define FEDRA_TRACE_SPAN(name)                        \
  ::fedra::telemetry::TraceSpan FEDRA_TELEMETRY_CONCAT_( \
      fedra_trace_span_, __LINE__)(name)
