// Trace spans and scoped timers.
//
// TraceSpan is an RAII wall-clock interval pushed into a bounded
// in-memory SpanBuffer (and mirrored into a duration histogram), meant
// for coarse phases: an FL round, a PPO update, an episode rollout.
// ScopedTimer is the histogram-only sibling for finer sites where
// per-event span records would swamp the buffer (minibatches, pool
// tasks). Both read Telemetry::enabled() once in the constructor and do
// literally nothing else when telemetry is off — no clock reads, no
// allocation, no locking.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "telemetry/metrics.hpp"

namespace fedra::telemetry {

/// Microseconds since the process-wide telemetry epoch (first use of the
/// clock). Monotonic (steady_clock).
double now_us();

/// Small dense id for the calling thread (0 = first thread seen).
std::uint32_t current_thread_id();

/// One completed span. `name` must point at storage that outlives the
/// buffer — instrumentation sites pass string literals. The trace ids
/// come from live::TraceContext: all spans of one logical request/arm
/// share `trace_id` even across threads, and `parent_span_id` links each
/// span to the span that was open when it started (0 = trace root).
struct SpanRecord {
  const char* name = "";
  double start_us = 0.0;
  double dur_us = 0.0;
  std::uint32_t tid = 0;
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  std::uint64_t parent_span_id = 0;
};

/// Spans the process-wide buffer keeps before it counts drops.
inline constexpr std::size_t kSpanCapacity = 1 << 16;

/// Bounded MPMC span sink: a mutex-protected vector that stops growing at
/// capacity and counts what it drops. Coarse-grained spans arrive at Hz,
/// not MHz, so a mutex is the right tool (CP.2: keep it simple).
class SpanBuffer {
 public:
  explicit SpanBuffer(std::size_t capacity = kSpanCapacity)
      : capacity_(capacity) {}

  void push(const SpanRecord& record);

  std::vector<SpanRecord> snapshot() const;
  std::size_t size() const;
  std::uint64_t dropped() const;
  std::size_t capacity() const { return capacity_; }
  void clear();

 private:
  mutable std::mutex mutex_;
  std::vector<SpanRecord> records_;
  std::size_t capacity_;
  std::uint64_t dropped_ = 0;
};

}  // namespace fedra::telemetry
