#include "live/flight_recorder.hpp"

#include <csignal>
#include <cstring>

#include <fcntl.h>
#include <unistd.h>

#include "obs/json_min.hpp"

namespace fedra::live {

namespace {

// ---------------------------------------------------------------------------
// Async-signal-safe formatting. Only write(2), open(2), and byte pushes
// into a caller-owned buffer — no malloc, no stdio, no locale.

struct SafeWriter {
  int fd = -1;
  char buf[512];
  std::size_t len = 0;

  void flush() {
    std::size_t off = 0;
    while (off < len) {
      const ::ssize_t n = ::write(fd, buf + off, len - off);
      if (n <= 0) break;  // nothing a signal handler can do about it
      off += static_cast<std::size_t>(n);
    }
    len = 0;
  }
  void ch(char c) {
    if (len == sizeof(buf)) flush();
    buf[len++] = c;
  }
  void str(const char* s) {
    if (s == nullptr) s = "(null)";
    for (; *s != '\0'; ++s) ch(*s);
  }
  void u64(std::uint64_t v) {
    char tmp[20];
    std::size_t n = 0;
    do {
      tmp[n++] = static_cast<char>('0' + v % 10);
      v /= 10;
    } while (v != 0);
    while (n > 0) ch(tmp[--n]);
  }
  void hex64(std::uint64_t v) {
    str("0x");
    char tmp[16];
    std::size_t n = 0;
    do {
      const std::uint64_t d = v & 0xF;
      tmp[n++] = static_cast<char>(d < 10 ? '0' + d : 'a' + (d - 10));
      v >>= 4;
    } while (v != 0);
    while (n > 0) ch(tmp[--n]);
  }
};

/// Stable read of one slot via its seqlock. Returns false if the slot was
/// never written or a writer raced us (dump skips it).
struct SlotCopy {
  const char* name;
  double t_us;
  double dur_us;
  std::uint64_t trace_id;
  std::uint64_t span_id;
  std::uint64_t arg;
  std::uint32_t kind;
};

bool read_slot(const FlightSlot& s, std::uint64_t expected_head,
               SlotCopy& out) {
  const std::uint64_t q1 = s.seq.load(std::memory_order_acquire);
  if (q1 != 2 * (expected_head + 1)) return false;  // torn or overwritten
  out.name = s.name.load(std::memory_order_relaxed);
  out.t_us = s.t_us.load(std::memory_order_relaxed);
  out.dur_us = s.dur_us.load(std::memory_order_relaxed);
  out.trace_id = s.trace_id.load(std::memory_order_relaxed);
  out.span_id = s.span_id.load(std::memory_order_relaxed);
  out.arg = s.arg.load(std::memory_order_relaxed);
  out.kind = s.kind.load(std::memory_order_relaxed);
  const std::uint64_t q2 = s.seq.load(std::memory_order_acquire);
  return q1 == q2;
}

/// Oldest record index still (possibly) present in a ring.
std::uint64_t ring_first(std::uint64_t head) {
  return head > kFlightRingSlots ? head - kFlightRingSlots : 0;
}

// Crash-handler state: plain statics written once by
// install_flight_recorder_crash_handler before any signal can use them.
char g_dump_path[512] = {0};
struct sigaction g_old_segv;
struct sigaction g_old_abrt;

extern "C" void flight_crash_handler(int signo) {
  int fd = 2;  // stderr fallback
  int opened = -1;
  if (g_dump_path[0] != '\0') {
    opened = ::open(g_dump_path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (opened >= 0) fd = opened;
  }
  dump_flight_recorder(fd);
  if (opened >= 0) ::close(opened);
  // Restore the default disposition and re-raise so the process still
  // dies with the original signal (exit code, core dump, waitpid status).
  ::signal(signo, SIG_DFL);
  ::raise(signo);
}

}  // namespace

FlightRecorderStats flight_recorder_stats() {
  FlightRecorderStats out;
  for (FlightRing* r = detail::g_flight_rings.load(std::memory_order_acquire);
       r != nullptr; r = r->next.load(std::memory_order_acquire)) {
    const std::uint64_t head = r->head.load(std::memory_order_acquire);
    ++out.threads;
    out.records += head;
    out.dropped += ring_first(head);  // records the wrap overwrote
  }
  return out;
}

void dump_flight_recorder(int fd) {
  SafeWriter w;
  w.fd = fd;
  const FlightRecorderStats stats = flight_recorder_stats();
  w.str("== fedra flight recorder ==\nthreads ");
  w.u64(stats.threads);
  w.str(" records ");
  w.u64(stats.records);
  w.str(" dropped ");
  w.u64(stats.dropped);
  w.ch('\n');
  for (FlightRing* r = detail::g_flight_rings.load(std::memory_order_acquire);
       r != nullptr; r = r->next.load(std::memory_order_acquire)) {
    const std::uint64_t head = r->head.load(std::memory_order_acquire);
    for (std::uint64_t i = ring_first(head); i < head; ++i) {
      SlotCopy c;
      if (!read_slot(r->slots[i & (kFlightRingSlots - 1)], i, c)) continue;
      w.str("tid ");
      w.u64(r->tid);
      w.str(" seq ");
      w.u64(i);
      w.str(c.kind == static_cast<std::uint32_t>(FlightKind::kSpan)
                ? " span "
                : " event ");
      w.str(c.name);
      w.str(" t_us ");
      w.u64(c.t_us < 0.0 ? 0 : static_cast<std::uint64_t>(c.t_us));
      w.str(" dur_us ");
      w.u64(c.dur_us < 0.0 ? 0 : static_cast<std::uint64_t>(c.dur_us));
      w.str(" trace ");
      w.hex64(c.trace_id);
      w.str(" span ");
      w.hex64(c.span_id);
      w.str(" arg ");
      w.u64(c.arg);
      w.ch('\n');
    }
  }
  w.str("== end flight recorder ==\n");
  w.flush();
}

void append_flight_recorder_json(std::string& out) {
  out += '[';
  bool first = true;
  for (FlightRing* r = detail::g_flight_rings.load(std::memory_order_acquire);
       r != nullptr; r = r->next.load(std::memory_order_acquire)) {
    const std::uint64_t head = r->head.load(std::memory_order_acquire);
    for (std::uint64_t i = ring_first(head); i < head; ++i) {
      SlotCopy c;
      if (!read_slot(r->slots[i & (kFlightRingSlots - 1)], i, c)) continue;
      if (!first) out += ',';
      first = false;
      obs::JsonObject o(out);
      o.u64("tid", r->tid)
          .u64("seq", i)
          .str("kind",
               c.kind == static_cast<std::uint32_t>(FlightKind::kSpan)
                   ? "span"
                   : "event")
          .str("name", c.name != nullptr ? c.name : "")
          .num("t_us", c.t_us)
          .num("dur_us", c.dur_us)
          .hex("trace_id", c.trace_id)
          .hex("span_id", c.span_id)
          .u64("arg", c.arg);
      o.close();
    }
  }
  out += ']';
}

bool install_flight_recorder_crash_handler(const char* path) {
  if (path != nullptr && path[0] != '\0') {
    std::strncpy(g_dump_path, path, sizeof(g_dump_path) - 1);
    g_dump_path[sizeof(g_dump_path) - 1] = '\0';
  } else {
    g_dump_path[0] = '\0';
  }
  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_handler = &flight_crash_handler;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;
  if (::sigaction(SIGSEGV, &sa, &g_old_segv) != 0) return false;
  if (::sigaction(SIGABRT, &sa, &g_old_abrt) != 0) return false;
  return true;
}

}  // namespace fedra::live
