// Tests for the live observability plane (ISSUE 10): trace-context
// propagation across the scheduler and the serve engine, the always-on
// flight recorder (ring wrap accounting, JSON/text dumps, the crash
// handler, zero-alloc steady state), the /statusz source registry, and
// the embedded HTTP exporter under concurrent scrape + mutation load and
// under mutated request bytes.
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "live/flight_recorder.hpp"
#include "live/http_client.hpp"
#include "live/http_exporter.hpp"
#include "live/status.hpp"
#include "live/trace_context.hpp"
#include "obs/json_min.hpp"
#include "serve/engine.hpp"
#include "telemetry/telemetry.hpp"
#include "util/thread_pool.hpp"

#if defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define FEDRA_TEST_TSAN 1
#endif
#endif
#if !defined(FEDRA_TEST_TSAN) && defined(__SANITIZE_THREAD__)
#define FEDRA_TEST_TSAN 1
#endif

namespace {

using namespace fedra;

// ---------------------------------------------------------------------------
// Global allocation counter for the zero-alloc steady-state test. Every
// scalar/array new in this binary bumps the counter; the recorder's hot
// path must not.

std::atomic<std::uint64_t> g_allocs{0};

}  // namespace

// The replacements stay out of line: inlined into a call site, the
// std::free in operator delete meets a pointer GCC knows came from
// operator new and draws -Wmismatched-new-delete.
[[gnu::noinline]] void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

[[gnu::noinline]] void* operator new[](std::size_t size) {
  return ::operator new(size);
}

[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}

namespace {

// ---------------------------------------------------------------------------
// TraceContext

TEST(TraceContext, IdsAreNonzeroAndUnique) {
  const auto a = live::next_trace_id();
  const auto b = live::next_trace_id();
  EXPECT_NE(a, 0u);
  EXPECT_NE(b, 0u);
  EXPECT_NE(a, b);
}

TEST(TraceContext, ScopedSaveRestore) {
  live::current_trace_context() = {0, 0};
  {
    live::ScopedTraceContext outer({11, 22});
    EXPECT_EQ(live::current_trace_context().trace_id, 11u);
    {
      live::ScopedTraceContext inner({33, 44});
      EXPECT_EQ(live::current_trace_context().trace_id, 33u);
      EXPECT_EQ(live::current_trace_context().span_id, 44u);
    }
    EXPECT_EQ(live::current_trace_context().trace_id, 11u);
    EXPECT_EQ(live::current_trace_context().span_id, 22u);
  }
  EXPECT_EQ(live::current_trace_context().trace_id, 0u);
}

// The scheduler captures the spawner's context at spawn time and restores
// it around task execution — for plain submit, TaskGroup forks, and
// parallel_for chunks alike.
TEST(TraceContext, PropagatesAcrossThreadPool) {
  ThreadPool pool(2);
  const std::uint64_t tid = live::next_trace_id();
  live::ScopedTraceContext root({tid, 77});

  auto fut = pool.submit([] { return live::current_trace_context(); });
  const live::TraceContext via_submit = fut.get();
  EXPECT_EQ(via_submit.trace_id, tid);
  EXPECT_EQ(via_submit.span_id, 77u);

  std::atomic<std::uint64_t> group_hits{0};
  TaskGroup group(pool);
  for (int i = 0; i < 8; ++i) {
    group.run([&] {
      if (live::current_trace_context().trace_id == tid) {
        group_hits.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  group.wait();
  EXPECT_EQ(group_hits.load(), 8u);

  std::atomic<std::uint64_t> chunk_hits{0};
  pool.parallel_for(0, 64, [&](std::size_t) {
    if (live::current_trace_context().trace_id == tid) {
      chunk_hits.fetch_add(1, std::memory_order_relaxed);
    }
  });
  EXPECT_EQ(chunk_hits.load(), 64u);
}

// Worker tasks spawned with NO ambient context must not leak a previous
// task's ids: the scheduler restores the captured (empty) context.
TEST(TraceContext, EmptyContextDoesNotLeakBetweenTasks) {
  ThreadPool pool(1);
  {
    live::ScopedTraceContext root({123, 0});
    pool.submit([] {}).get();
  }
  // Now spawn without any ambient context; the single worker just ran a
  // task under trace 123 and must not still carry it.
  const auto ctx =
      pool.submit([] { return live::current_trace_context(); }).get();
  EXPECT_EQ(ctx.trace_id, 0u);
  EXPECT_EQ(ctx.span_id, 0u);
}

// ---------------------------------------------------------------------------
// TraceSpan parenting

TEST(TraceSpanNesting, ParentChainAndSharedTraceId) {
  telemetry::Telemetry::enable({});
  telemetry::Telemetry::reset();
  live::current_trace_context() = {0, 0};
  {
    telemetry::TraceSpan outer("live_test.outer");
    { telemetry::TraceSpan inner("live_test.inner"); }
  }
  const auto spans = telemetry::Telemetry::spans().snapshot();
  const telemetry::SpanRecord* outer = nullptr;
  const telemetry::SpanRecord* inner = nullptr;
  for (const auto& s : spans) {
    if (std::string(s.name) == "live_test.outer") outer = &s;
    if (std::string(s.name) == "live_test.inner") inner = &s;
  }
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  EXPECT_NE(outer->trace_id, 0u);
  EXPECT_EQ(outer->trace_id, inner->trace_id);
  EXPECT_EQ(inner->parent_span_id, outer->span_id);
  EXPECT_EQ(outer->parent_span_id, 0u);
  EXPECT_NE(inner->span_id, outer->span_id);
  telemetry::Telemetry::disable();
}

// ---------------------------------------------------------------------------
// Serve: one trace id across the client thread and the batcher thread.

class IdentityPolicy final : public serve::BatchPolicy {
 public:
  std::size_t state_dim() const override { return 4; }
  std::size_t action_dim() const override { return 4; }
  void mean_action_batch(const Matrix& states, Matrix& actions) override {
    actions = states;
  }
};

TEST(ServeTrace, DecideAndInferShareOneTraceId) {
  telemetry::Telemetry::enable({});
  telemetry::Telemetry::reset();

  IdentityPolicy policy;
  serve::ServeConfig cfg;
  cfg.max_batch = 4;
  std::vector<std::uint64_t> client_traces(3, 0);
  {
    serve::InferenceEngine engine(policy, cfg);
    std::vector<std::thread> clients;
    for (std::size_t t = 0; t < client_traces.size(); ++t) {
      clients.emplace_back([&, t] {
        // Each client runs under its own root trace, like a federation
        // driving its own decisions.
        live::ScopedTraceContext root({live::next_trace_id(), 0});
        client_traces[t] = live::current_trace_context().trace_id;
        const std::vector<double> state{0.1, 0.2, 0.3, 0.4};
        for (int d = 0; d < 5; ++d) {
          const auto r = engine.decide(state);
          ASSERT_TRUE(r.ok());
        }
      });
    }
    for (auto& c : clients) c.join();
  }

  const auto spans = telemetry::Telemetry::spans().snapshot();
  for (const std::uint64_t trace : client_traces) {
    ASSERT_NE(trace, 0u);
    std::size_t decides = 0;
    std::size_t infers = 0;
    std::uint32_t decide_tid = 0;
    std::uint32_t infer_tid = 0;
    for (const auto& s : spans) {
      if (s.trace_id != trace) continue;
      if (std::string(s.name) == "serve.decide") {
        ++decides;
        decide_tid = s.tid;
      }
      if (std::string(s.name) == "serve.infer") {
        ++infers;
        infer_tid = s.tid;
      }
    }
    // Every decide() produced a decide span on the client thread and an
    // infer span on the batcher thread, all under the client's trace id.
    EXPECT_EQ(decides, 5u);
    EXPECT_EQ(infers, 5u);
    EXPECT_NE(decide_tid, infer_tid);
  }
  telemetry::Telemetry::disable();
}

// ---------------------------------------------------------------------------
// Flight recorder

TEST(FlightRecorder, WrapAccountsDroppedRecords) {
  live::set_flight_recorder_enabled(true);
  const auto before = live::flight_recorder_stats();
  // A fresh thread gets a fresh ring; overfill it past one full wrap.
  const std::size_t writes = live::kFlightRingSlots + 100;
  std::thread writer([writes] {
    for (std::size_t i = 0; i < writes; ++i) {
      live::record_event("live_test.wrap", i);
    }
  });
  writer.join();
  const auto after = live::flight_recorder_stats();
  EXPECT_EQ(after.records - before.records, writes);
  EXPECT_GE(after.dropped - before.dropped, 100u);
  EXPECT_GT(after.threads, before.threads);
}

TEST(FlightRecorder, JsonDumpParsesAndCarriesRecords) {
  live::set_flight_recorder_enabled(true);
  live::current_trace_context() = {0xabc, 0xdef};
  live::record_event("live_test.json_probe", 99);
  live::current_trace_context() = {0, 0};

  std::string out;
  live::append_flight_recorder_json(out);
  obs::JsonValue v;
  ASSERT_TRUE(obs::parse_json(out, v));
  ASSERT_TRUE(v.is_array());
  bool found = false;
  for (const auto& rec : v.array) {
    if (rec.get_string("name") == "live_test.json_probe" &&
        rec.get_number("arg") == 99.0 &&
        rec.get_string("trace_id") == "0xabc") {
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(FlightRecorder, TextDumpIsLineOriented) {
  live::set_flight_recorder_enabled(true);
  live::record_event("live_test.text_probe", 5);
  const std::string path =
      ::testing::TempDir() + "fedra_live_text_dump.txt";
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  ASSERT_GE(fd, 0);
  live::dump_flight_recorder(fd);
  ::close(fd);

  std::string text;
  {
    std::FILE* f = std::fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    char buf[4096];
    std::size_t n = 0;
    while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) text.append(buf, n);
    std::fclose(f);
  }
  EXPECT_NE(text.find("== fedra flight recorder =="), std::string::npos);
  EXPECT_NE(text.find("live_test.text_probe"), std::string::npos);
  EXPECT_NE(text.find("== end flight recorder =="), std::string::npos);
  ::unlink(path.c_str());
}

TEST(FlightRecorder, CrashHandlerDumpsOnAbort) {
#if defined(FEDRA_TEST_TSAN)
  GTEST_SKIP() << "fork + re-raised SIGABRT is not meaningful under TSan";
#else
  const std::string path =
      ::testing::TempDir() + "fedra_live_crash_dump.txt";
  ::unlink(path.c_str());
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    // Child: record a breadcrumb, install the handler, die. Everything
    // after install must run without gtest plumbing — _exit on any
    // unexpected path so the parent sees a clean verdict.
    live::set_flight_recorder_enabled(true);
    live::record_event("live_test.crash_probe", 1234);
    if (!live::install_flight_recorder_crash_handler(path.c_str())) {
      ::_exit(7);
    }
    std::abort();  // SIGABRT -> dump -> default disposition re-raised
  }
  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFSIGNALED(status));
  EXPECT_EQ(WTERMSIG(status), SIGABRT);

  std::string text;
  {
    std::FILE* f = std::fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr) << "crash handler produced no dump file";
    char buf[4096];
    std::size_t n = 0;
    while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) text.append(buf, n);
    std::fclose(f);
  }
  EXPECT_NE(text.find("== fedra flight recorder =="), std::string::npos);
  EXPECT_NE(text.find("live_test.crash_probe"), std::string::npos);
  ::unlink(path.c_str());
#endif
}

TEST(FlightRecorder, SteadyStateIsZeroAlloc) {
  live::set_flight_recorder_enabled(true);
  // Warm up: the thread's first record allocates its ring, once.
  live::record_event("live_test.warmup", 0);
  const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  for (std::uint64_t i = 0; i < 10000; ++i) {
    live::record_event("live_test.steady", i);
    live::record_flight("live_test.span", 1.0, 2.0, live::FlightKind::kSpan,
                        i);
  }
  const std::uint64_t after = g_allocs.load(std::memory_order_relaxed);
  EXPECT_EQ(after, before) << "recorder hot path allocated";
}

// ---------------------------------------------------------------------------
// Status registry

TEST(StatusRegistry, RegisterCollectUnregister) {
  const std::size_t id = live::register_status_source(
      "live_test.src", [](std::string& out) { out += "{\"x\":1}"; });
  std::string out;
  live::collect_status_json(out);
  EXPECT_NE(out.find("\"live_test.src\":{\"x\":1}"), std::string::npos);

  // Duplicate names get a ".N" suffix instead of colliding.
  const std::size_t id2 = live::register_status_source(
      "live_test.src", [](std::string& out2) { out2 += "{\"x\":2}"; });
  out.clear();
  live::collect_status_json(out);
  EXPECT_NE(out.find("\"live_test.src.2\":{\"x\":2}"), std::string::npos);

  live::unregister_status_source(id);
  live::unregister_status_source(id2);
  out.clear();
  live::collect_status_json(out);
  EXPECT_EQ(out.find("live_test.src"), std::string::npos);
}

TEST(StatusRegistry, SweepProgressCounters) {
  const auto before = live::sweep_progress();
  live::sweep_progress_add_total(3);
  live::sweep_progress_arm_done();
  const auto after = live::sweep_progress();
  EXPECT_EQ(after.first - before.first, 3u);
  EXPECT_EQ(after.second - before.second, 1u);
}

// ---------------------------------------------------------------------------
// HTTP exporter

// Every non-comment Prometheus text line must be "name{...} value" or
// "name value" — a cheap shape check that catches torn responses.
bool prometheus_parses(const std::string& body) {
  std::size_t start = 0;
  bool any = false;
  while (start < body.size()) {
    std::size_t end = body.find('\n', start);
    if (end == std::string::npos) end = body.size();
    const std::string line = body.substr(start, end - start);
    start = end + 1;
    if (line.empty() || line[0] == '#') continue;
    const auto space = line.rfind(' ');
    if (space == std::string::npos || space == 0 ||
        space + 1 >= line.size()) {
      return false;
    }
    any = true;
  }
  return any;
}

TEST(LiveServer, OutOfRangePortDoesNotStart) {
  // A port that does not fit in 16 bits is refused, not wrapped onto
  // another port (-1 would bind 65535, 65536 an ephemeral port).
  for (const int port : {-1, 65536, 70000}) {
    live::LiveServer server{live::LiveConfig{port}};
    EXPECT_FALSE(server.start()) << "port " << port;
    EXPECT_FALSE(server.running()) << "port " << port;
    EXPECT_EQ(server.port(), 0) << "port " << port;
  }
}

TEST(LiveServer, ConcurrentScrapesUnderRegistryMutation) {
  telemetry::Telemetry::enable({});
  live::set_flight_recorder_enabled(true);

  live::LiveServer server{live::LiveConfig{}};
  ASSERT_TRUE(server.start());
  const int port = server.port();
  ASSERT_GT(port, 0);

  // One mutator thread hammers the registry and the recorder while eight
  // scraper threads fetch; every response must be complete and parseable.
  std::atomic<bool> stop{false};
  std::thread mutator([&] {
    auto counter = telemetry::Telemetry::metrics().counter("live_test.mut");
    auto gauge = telemetry::Telemetry::metrics().gauge("live_test.g");
    auto hist = telemetry::Telemetry::metrics().histogram("live_test.h");
    std::uint64_t i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      counter.add(1);
      gauge.set(static_cast<double>(i));
      hist.record(static_cast<double>(i % 100));
      live::record_event("live_test.mut", i);
      ++i;
    }
  });

  constexpr int kThreads = 8;
  constexpr int kRequests = 16;
  std::atomic<int> bad{0};
  std::vector<std::thread> scrapers;
  for (int t = 0; t < kThreads; ++t) {
    scrapers.emplace_back([&, t] {
      for (int i = 0; i < kRequests; ++i) {
        const char* target = (t + i) % 3 == 0   ? "/metrics"
                             : (t + i) % 3 == 1 ? "/statusz?recorder=1"
                                                : "/healthz";
        const auto r = live::http_get("127.0.0.1", port, target, 5000);
        if (r.status != 200) {
          bad.fetch_add(1);
          continue;
        }
        if (std::string(target) == "/metrics") {
          if (!prometheus_parses(r.body)) bad.fetch_add(1);
        } else {
          obs::JsonValue v;
          if (!obs::parse_json(r.body, v) || !v.is_object()) {
            bad.fetch_add(1);
          }
        }
      }
    });
  }
  for (auto& s : scrapers) s.join();
  stop.store(true);
  mutator.join();

  EXPECT_EQ(bad.load(), 0);
  EXPECT_GE(server.scrape_count(),
            static_cast<std::uint64_t>(kThreads * kRequests));
  server.stop();
  telemetry::Telemetry::disable();
}

TEST(LiveServer, HealthzReportsWatchdogStaleness) {
  live::LiveConfig cfg;
  cfg.watchdog_stale_s = 0.05;
  live::LiveServer server(cfg);
  ASSERT_TRUE(server.start());
  const int port = server.port();

  // Reset to "never kicked" — that is healthy (no instrumented loop yet).
  live::detail::g_watchdog_us.store(-1.0, std::memory_order_relaxed);
  auto r = live::http_get("127.0.0.1", port, "/healthz");
  EXPECT_EQ(r.status, 200);

  // Fresh kick: healthy.
  live::watchdog_kick();
  r = live::http_get("127.0.0.1", port, "/healthz");
  EXPECT_EQ(r.status, 200);
  obs::JsonValue v;
  ASSERT_TRUE(obs::parse_json(r.body, v));
  EXPECT_EQ(v.get_string("status"), "ok");

  // Let the kick go stale past the configured threshold: 503.
  std::this_thread::sleep_for(std::chrono::milliseconds(120));
  r = live::http_get("127.0.0.1", port, "/healthz");
  EXPECT_EQ(r.status, 503);
  ASSERT_TRUE(obs::parse_json(r.body, v));
  EXPECT_EQ(v.get_string("status"), "stale");

  live::detail::g_watchdog_us.store(-1.0, std::memory_order_relaxed);
  server.stop();
}

TEST(LiveServer, StatusSourcesAppearInStatusz) {
  const std::size_t id = live::register_status_source(
      "live_test.endpoint", [](std::string& out) { out += "{\"ready\":true}"; });
  live::LiveServer server{live::LiveConfig{}};
  ASSERT_TRUE(server.start());
  const auto r = live::http_get("127.0.0.1", server.port(), "/statusz");
  EXPECT_EQ(r.status, 200);
  obs::JsonValue v;
  ASSERT_TRUE(obs::parse_json(r.body, v));
  const obs::JsonValue* sources = v.find("sources");
  ASSERT_NE(sources, nullptr);
  const obs::JsonValue* src = sources->find("live_test.endpoint");
  ASSERT_NE(src, nullptr);
  EXPECT_TRUE(src->get_bool("ready"));
  server.stop();
  live::unregister_status_source(id);
}

TEST(LiveServer, RecorderDumpKeepsExactTimestamps) {
  // A timestamp with more digits than a fixed three-decimal format keeps:
  // the /statusz?recorder=1 slot must carry the recorded bits.
  live::set_flight_recorder_enabled(true);
  const double t_us = 1234.5678901234567;
  const double dur_us = 0.1;
  live::record_flight("live_test.exact_t", t_us, dur_us,
                      live::FlightKind::kSpan, 4242);
  live::LiveServer server{live::LiveConfig{}};
  ASSERT_TRUE(server.start());
  const auto r =
      live::http_get("127.0.0.1", server.port(), "/statusz?recorder=1");
  server.stop();
  ASSERT_EQ(r.status, 200);
  obs::JsonValue v;
  ASSERT_TRUE(obs::parse_json(r.body, v));
  const obs::JsonValue* dump = v.find("flight_recorder");
  ASSERT_NE(dump, nullptr);
  bool found = false;
  for (const auto& slot : dump->array) {
    if (slot.get_string("name") != "live_test.exact_t" ||
        slot.get_number("arg") != 4242.0) {
      continue;
    }
    found = true;
    EXPECT_EQ(slot.get_number("t_us"), t_us);
    EXPECT_EQ(slot.get_number("dur_us"), dur_us);
  }
  EXPECT_TRUE(found);
}

TEST(LiveServer, RejectsMalformedAndUnknownRequests) {
  live::LiveServer server{live::LiveConfig{}};
  ASSERT_TRUE(server.start());
  const auto r404 = live::http_get("127.0.0.1", server.port(), "/nope");
  EXPECT_EQ(r404.status, 404);
  server.stop();
  server.stop();  // idempotent
  EXPECT_FALSE(server.running());
}

/// Sends `request` verbatim on one loopback connection, half-closes the
/// write side (so a request with no terminator ends at EOF instead of
/// waiting out the server's receive timeout), and returns every byte the
/// server sent back before closing.
std::string raw_exchange(int port, const std::string& request) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "<socket failed>";
  timeval tv{5, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return "<connect failed>";
  }
  std::size_t off = 0;
  while (off < request.size()) {
    const ::ssize_t n = ::send(fd, request.data() + off, request.size() - off,
                               MSG_NOSIGNAL);
    if (n <= 0) break;  // the server may close before reading it all
    off += static_cast<std::size_t>(n);
  }
  ::shutdown(fd, SHUT_WR);
  std::string reply;
  char buf[4096];
  for (;;) {
    const ::ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    reply.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return reply;
}

/// A reply is acceptable when it is empty (the server dropped the
/// connection) or opens with a status line the exporter can send for a
/// GET that is not stale: 200, 400, 404 or 405.
bool acceptable_reply(const std::string& reply) {
  if (reply.empty()) return true;
  const std::string prefix = "HTTP/1.1 ";
  if (reply.compare(0, prefix.size(), prefix) != 0) return false;
  const std::string code = reply.substr(prefix.size(), 4);
  return code == "200 " || code == "400 " || code == "404 " || code == "405 ";
}

// Every single-bit flip and every truncation of one valid request, plus
// one request line longer than the server's 8 KiB read cap, one
// connection at a time: each reply is empty or a well-formed status line,
// and the server still answers /healthz afterwards.
TEST(LiveServer, MutatedRequestsGetWellFormedReplies) {
  live::LiveServer server{live::LiveConfig{}};
  ASSERT_TRUE(server.start());
  const int port = server.port();
  const std::string valid = "GET /healthz?x=1 HTTP/1.1\r\n\r\n";

  std::vector<std::string> inputs;
  for (std::size_t i = 0; i < valid.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string flipped = valid;
      flipped[i] = static_cast<char>(flipped[i] ^ (1 << bit));
      inputs.push_back(std::move(flipped));
    }
  }
  for (std::size_t len = 0; len < valid.size(); ++len) {
    inputs.push_back(valid.substr(0, len));
  }
  inputs.push_back("GET /" + std::string(9 * 1024, 'a') +
                   " HTTP/1.1\r\n\r\n");

  for (std::size_t k = 0; k < inputs.size(); ++k) {
    const std::string reply = raw_exchange(port, inputs[k]);
    EXPECT_TRUE(acceptable_reply(reply))
        << "input " << k << " got: " << reply.substr(0, 64);
  }

  const auto health = live::http_get("127.0.0.1", port, "/healthz");
  EXPECT_EQ(health.status, 200);
  server.stop();
}

}  // namespace
