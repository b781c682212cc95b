// In-memory span tracer and the arithmetic the benchmark reports from it.
//
// Spans are opened by the benchmark's own code around each call into a
// fedra layer; the library itself is untouched. A span records its name,
// start, end, parent span and thread. Spans stay in per-thread buffers until
// the run ends, then the report folds them into per-name call counts, busy
// time, self time and per-call percentiles.
//
// Self time of a span is its duration minus the part of that interval its
// child spans cover. Only children on the span's own thread count: a child
// running on another thread does not free the parent's thread, so it does
// not reduce the parent's self time. Overlapping children are merged before
// subtracting, so time is never removed twice.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace bench_e2e {

/// Microseconds on the steady clock.
double now_us();

struct SpanRecord {
  const char* name = "";
  double start_us = 0.0;
  double end_us = 0.0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
  std::uint32_t thread = 0;

  double duration_us() const { return end_us - start_us; }
};

/// Process-wide tracer. Off by default; a Span constructed while it is off
/// costs one relaxed load and records nothing.
class Tracer {
 public:
  static bool on();
  static void set_on(bool on);
  /// Stable C string for a name built at run time (e.g. "sched.decide." +
  /// policy); literals can be passed to Span directly.
  static const char* intern(const std::string& name);
  /// Every span recorded so far, from all threads. Call only while no span
  /// is being recorded.
  static std::vector<SpanRecord> collect();
  /// Drops every recorded span.
  static void clear();
  /// Small dense id of the calling thread (0 = first thread that asked).
  static std::uint32_t thread_index();
};

/// RAII span over the enclosing scope. `name` must outlive the run (a
/// literal or Tracer::intern).
class Span {
 public:
  explicit Span(const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_ = nullptr;  ///< nullptr = tracer was off at entry
  double start_us_ = 0.0;
  std::uint64_t id_ = 0;
  std::uint64_t parent_ = 0;
};

/// Self time of every span, index-aligned with `spans`.
std::vector<double> self_times_us(const std::vector<SpanRecord>& spans);

struct SpanStats {
  std::size_t calls = 0;
  double busy_us = 0.0;  ///< sum of durations
  double self_us = 0.0;  ///< sum of self times
  double p50_us = 0.0;   ///< nearest-rank median duration
};

/// Per-name statistics over `spans`.
std::map<std::string, SpanStats> span_stats(
    const std::vector<SpanRecord>& spans);

/// Coverage of the workload wall by layer spans: the spans named
/// `root_name` delimit the measured windows; the result is the sum of self
/// times of every span nested (through same-thread parents) under a root,
/// divided by the summed root durations. 0 when there is no root.
double coverage(const std::vector<SpanRecord>& spans, const char* root_name);

/// Nearest-rank percentile `q_bp` (basis points: 5000 = p50) of `sorted`,
/// which must be ascending and non-empty.
double nearest_rank(const std::vector<double>& sorted, unsigned q_bp);

/// The `tail` of a timing: the highest percentile on the ladder
/// p50 < p75 < p90 < p95 < p99 < p99.9 < p99.99 that leaves at least ten
/// samples beyond its nearest rank. `ok` is false below 20 samples, where
/// not even the median leaves ten beyond it.
struct Tail {
  bool ok = false;
  double percentile = 0.0;  ///< e.g. 95.0
  double value = 0.0;
  std::size_t samples = 0;
  std::size_t beyond = 0;  ///< samples ranked above the percentile
};
Tail tail_of(std::vector<double> samples);

/// Median (nearest rank) of `samples`; 0 when empty.
double median_of(std::vector<double> samples);

}  // namespace bench_e2e
