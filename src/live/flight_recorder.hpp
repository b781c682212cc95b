// Always-on flight recorder: the crash black box.
//
// Every thread that records gets one fixed-size ring of the last
// kFlightRingSlots span/event records. Recording is a handful of relaxed
// atomic stores bracketed by a per-slot sequence word (a seqlock), so the
// steady state allocates nothing, takes no locks, and costs tens of
// nanoseconds; readers (the /statusz?recorder=1 endpoint and the
// async-signal-safe crash dump in flight_recorder.cpp) skip any slot
// whose sequence changes under them. Rings are registered on a global
// lock-free list and deliberately leaked: a SIGSEGV handler must be able
// to walk them even while the owning thread is mid-crash, and records
// from exited threads are exactly what a post-mortem wants to see.
//
// The recorder is independent of telemetry::Telemetry: it defaults ON
// (that is the point of a black box) and is bit-invisible to training —
// it only ever observes timestamps and string-literal pointers.
//
// The hot path is header-only (inline variables) so record sites inline;
// the dump/handler machinery lives in flight_recorder.cpp.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>

#include "live/trace_context.hpp"
#include "telemetry/span.hpp"

namespace fedra::live {

enum class FlightKind : std::uint32_t {
  kSpan = 0,   ///< completed TraceSpan (dur_us meaningful)
  kEvent = 1,  ///< instant marker (dur_us = 0, arg free-form)
};

/// One recorded slot. Fields are individual relaxed atomics: the owning
/// thread is the only writer, concurrent dump readers validate via `seq`
/// (odd = write in progress or torn; skip).
struct FlightSlot {
  std::atomic<std::uint64_t> seq{0};  ///< 2*(head+1) when stable, odd mid-write
  std::atomic<const char*> name{nullptr};  ///< string literal
  std::atomic<double> t_us{0.0};
  std::atomic<double> dur_us{0.0};
  std::atomic<std::uint64_t> trace_id{0};
  /// Innermost span id associated with the record: the span's own id for
  /// kSpan records, the enclosing span for kEvent records.
  std::atomic<std::uint64_t> span_id{0};
  std::atomic<std::uint64_t> arg{0};
  std::atomic<std::uint32_t> kind{0};
};

inline constexpr std::size_t kFlightRingSlots = 4096;  // power of two

/// Per-thread ring. `head` counts records ever written by this thread;
/// slot index is head & (kFlightRingSlots - 1). Registered once on the
/// global intrusive list, never unregistered, never freed.
struct FlightRing {
  std::atomic<std::uint64_t> head{0};
  std::uint32_t tid = 0;
  std::atomic<FlightRing*> next{nullptr};
  FlightSlot slots[kFlightRingSlots];
};

namespace detail {
inline std::atomic<FlightRing*> g_flight_rings{nullptr};
inline std::atomic<bool> g_flight_enabled{true};
inline thread_local FlightRing* t_flight_ring = nullptr;

/// One-time per-thread: allocate and publish this thread's ring.
inline FlightRing* make_flight_ring() {
  auto* ring = new FlightRing();  // leaked: see file header
  ring->tid = telemetry::current_thread_id();
  FlightRing* head = g_flight_rings.load(std::memory_order_acquire);
  do {
    ring->next.store(head, std::memory_order_relaxed);
  } while (!g_flight_rings.compare_exchange_weak(
      head, ring, std::memory_order_acq_rel, std::memory_order_acquire));
  t_flight_ring = ring;
  return ring;
}
}  // namespace detail

/// The one branch every record site pays when the recorder is off.
inline bool flight_recorder_enabled() {
  return detail::g_flight_enabled.load(std::memory_order_relaxed);
}

inline void set_flight_recorder_enabled(bool on) {
  detail::g_flight_enabled.store(on, std::memory_order_relaxed);
}

/// Records one slot into the calling thread's ring. Zero-alloc after the
/// thread's first record (which allocates its ring once).
inline void record_flight(const char* name, double t_us, double dur_us,
                          FlightKind kind, std::uint64_t arg = 0) {
  if (!flight_recorder_enabled()) return;
  FlightRing* ring = detail::t_flight_ring;
  if (ring == nullptr) ring = detail::make_flight_ring();
  const std::uint64_t h = ring->head.load(std::memory_order_relaxed);
  FlightSlot& s = ring->slots[h & (kFlightRingSlots - 1)];
  const TraceContext& ctx = current_trace_context();
  // Seqlock write: odd seq marks the slot torn for concurrent dumpers.
  s.seq.store(2 * h + 1, std::memory_order_release);
  s.name.store(name, std::memory_order_relaxed);
  s.t_us.store(t_us, std::memory_order_relaxed);
  s.dur_us.store(dur_us, std::memory_order_relaxed);
  s.trace_id.store(ctx.trace_id, std::memory_order_relaxed);
  s.span_id.store(ctx.span_id, std::memory_order_relaxed);
  s.arg.store(arg, std::memory_order_relaxed);
  s.kind.store(static_cast<std::uint32_t>(kind), std::memory_order_relaxed);
  s.seq.store(2 * (h + 1), std::memory_order_release);
  ring->head.store(h + 1, std::memory_order_release);
}

/// Instant marker ("this thread was HERE"): one clock read + one slot.
inline void record_event(const char* name, std::uint64_t arg = 0) {
  if (!flight_recorder_enabled()) return;
  record_flight(name, telemetry::now_us(), 0.0, FlightKind::kEvent, arg);
}

/// Aggregate recorder counters (normal-path reads, not signal-safe).
struct FlightRecorderStats {
  std::uint64_t threads = 0;   ///< rings registered
  std::uint64_t records = 0;   ///< slots ever written
  std::uint64_t dropped = 0;   ///< records overwritten by ring wrap
};
FlightRecorderStats flight_recorder_stats();

/// Async-signal-safe dump of every ring's surviving slots to `fd` in a
/// line-oriented text format (write(2) + integer formatting only).
void dump_flight_recorder(int fd);

/// Appends a JSON array of surviving records (normal path; allocates).
/// Used by /statusz?recorder=1 and tests.
void append_flight_recorder_json(std::string& out);

/// Installs SIGSEGV/SIGABRT handlers that dump the recorder to
/// `path` (or stderr when null/empty), restore the default disposition,
/// and re-raise. Idempotent per path; returns false if sigaction fails.
bool install_flight_recorder_crash_handler(const char* path = nullptr);

}  // namespace fedra::live
