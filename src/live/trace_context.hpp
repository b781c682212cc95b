// Cross-thread trace-context propagation.
//
// A TraceContext is two 64-bit ids: the trace a computation belongs to
// and the span that is currently open on this thread (the parent of any
// span opened next). The context lives in a thread_local; the scheduler
// captures it at spawn time (ThreadPool::spawn / TaskGroup::run /
// parallel_for chunk setup) and restores it around task execution, so a
// serve request keeps ONE trace id across decide() -> batcher -> batched
// forward -> completion, and a sweep arm's whole task tree hangs off one
// per-arm root. telemetry::TraceSpan reads and pushes this context, which
// is what turns the flat Chrome-trace output into a causal tree.
//
// Everything here is header-only (C++17 inline variables). Cost when
// nothing is tracing: the context is {0, 0} and capture/restore is six
// word copies — no atomics, no branches.
#pragma once

#include <atomic>
#include <cstdint>

namespace fedra::live {

/// The per-thread causal position. trace_id == 0 means "no active trace":
/// spans opened in that state start a fresh trace.
struct TraceContext {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;  ///< innermost open span (parent for children)
};

namespace detail {
inline thread_local TraceContext t_trace_context{};
inline std::atomic<std::uint64_t> g_next_trace_id{1};
}  // namespace detail

/// The calling thread's current context (mutable reference).
inline TraceContext& current_trace_context() {
  return detail::t_trace_context;
}

/// Process-unique nonzero 64-bit id: a counter finalized through the
/// SplitMix64 mixer, so ids are well spread without any RNG state (and
/// without wall-clock reads, which determinism tests forbid).
inline std::uint64_t next_trace_id() {
  std::uint64_t z =
      detail::g_next_trace_id.fetch_add(1, std::memory_order_relaxed) *
      0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  z ^= z >> 31;
  return z | 1ULL;  // never 0 ("no trace")
}

/// RAII set/restore of the thread's context. Used by the scheduler around
/// task bodies and by the serve batcher around per-request completion
/// work; TraceSpan does its own push/pop inline.
class ScopedTraceContext {
 public:
  explicit ScopedTraceContext(TraceContext ctx)
      : saved_(current_trace_context()) {
    current_trace_context() = ctx;
  }
  ~ScopedTraceContext() { current_trace_context() = saved_; }
  ScopedTraceContext(const ScopedTraceContext&) = delete;
  ScopedTraceContext& operator=(const ScopedTraceContext&) = delete;

 private:
  TraceContext saved_;
};

}  // namespace fedra::live
