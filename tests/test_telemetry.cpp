// Telemetry subsystem: metric semantics, thread-safety under the pool,
// disabled-mode no-op guarantees, and sink round-trips.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "obs/json_min.hpp"
#include "telemetry/telemetry.hpp"
#include "util/thread_pool.hpp"

namespace fedra::telemetry {
namespace {

// Every test starts from a known state; the facade is process-global.
class TelemetryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Telemetry::enable();  // no sink paths: in-memory only
    Telemetry::reset();
  }
  void TearDown() override {
    Telemetry::reset();
    Telemetry::disable();
  }
};

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// Doubles written by a sink must parse back to the very same bits.
void expect_same_bits(double parsed, double recorded) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(parsed),
            std::bit_cast<std::uint64_t>(recorded))
      << parsed << " vs " << recorded;
}

// The one span named `name` in the in-memory buffer.
SpanRecord recorded_span(const char* name) {
  for (const SpanRecord& r : Telemetry::spans().snapshot()) {
    if (std::string(r.name) == name) return r;
  }
  ADD_FAILURE() << "no span " << name;
  return {};
}

TEST_F(TelemetryTest, CounterAccumulatesAndIsIdempotentlyNamed) {
  Counter a = Telemetry::metrics().counter("test.counter");
  Counter b = Telemetry::metrics().counter("test.counter");
  a.add();
  b.add(41);
  EXPECT_EQ(a.value(), 42u);  // same cell through both handles
  EXPECT_EQ(b.value(), 42u);
}

TEST_F(TelemetryTest, DefaultConstructedHandlesAreInertNoOps) {
  Counter c;
  Gauge g;
  Histogram h;
  c.add();
  g.set(3.0);
  h.record(1.0);
  EXPECT_FALSE(c.valid());
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(g.value(), 0.0);
  EXPECT_EQ(h.count(), 0u);
}

TEST_F(TelemetryTest, GaugeSetAndAdd) {
  Gauge g = Telemetry::metrics().gauge("test.gauge");
  g.set(2.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.5);
  g.add(-1.0);
  EXPECT_DOUBLE_EQ(g.value(), 1.5);
}

TEST_F(TelemetryTest, HistogramBucketsCountSumExtremaPercentiles) {
  Histogram h = Telemetry::metrics().histogram(
      "test.hist", std::vector<double>{1.0, 10.0, 100.0});
  h.record(0.5);    // bucket 0 (<= 1)
  h.record(5.0);    // bucket 1
  h.record(50.0);   // bucket 2
  h.record(500.0);  // overflow bucket
  const auto snap = Telemetry::metrics().snapshot();
  const HistogramSnapshot* hs = nullptr;
  for (const auto& row : snap.histograms) {
    if (row.name == "test.hist") hs = &row;
  }
  ASSERT_NE(hs, nullptr);
  EXPECT_EQ(hs->count, 4u);
  EXPECT_DOUBLE_EQ(hs->sum, 555.5);
  EXPECT_DOUBLE_EQ(hs->min, 0.5);
  EXPECT_DOUBLE_EQ(hs->max, 500.0);
  ASSERT_EQ(hs->counts.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(hs->counts[i], 1u);
  // Percentiles are bucket-interpolated estimates: monotone and bounded.
  const double p25 = hs->percentile(25.0);
  const double p75 = hs->percentile(75.0);
  EXPECT_LE(hs->min, p25);
  EXPECT_LE(p25, p75);
  EXPECT_LE(p75, hs->max);
}

TEST_F(TelemetryTest, HistogramValuesOnBucketBoundaryGoToLowerBucket) {
  Histogram h = Telemetry::metrics().histogram(
      "test.hist_edge", std::vector<double>{1.0, 2.0});
  h.record(1.0);
  const auto snap = Telemetry::metrics().snapshot();
  for (const auto& row : snap.histograms) {
    if (row.name != "test.hist_edge") continue;
    EXPECT_EQ(row.counts[0], 1u);
    EXPECT_EQ(row.counts[1], 0u);
  }
}

TEST_F(TelemetryTest, ConcurrentIncrementsFromPoolWorkersAreExact) {
  Counter c = Telemetry::metrics().counter("test.concurrent");
  Histogram h = Telemetry::metrics().histogram("test.concurrent_hist");
  ThreadPool pool(4);
  EXPECT_EQ(pool.pending(), 0u);
  constexpr std::size_t kIters = 20000;
  pool.parallel_for(0, kIters, [&](std::size_t i) {
    c.add();
    h.record(static_cast<double>(i % 64));
  });
  EXPECT_EQ(c.value(), kIters);
  EXPECT_EQ(h.count(), kIters);
  // The pool itself was instrumented while telemetry was on.
  const auto snap = Telemetry::metrics().snapshot();
  bool saw_task_hist = false;
  for (const auto& row : snap.histograms) {
    if (row.name == "pool.task_us") saw_task_hist = row.count > 0;
  }
  EXPECT_TRUE(saw_task_hist);
}

TEST_F(TelemetryTest, SpanBufferBoundedAndCountsDrops) {
  SpanBuffer buf(2);
  SpanRecord r;
  r.name = "x";
  buf.push(r);
  buf.push(r);
  buf.push(r);
  EXPECT_EQ(buf.size(), 2u);
  EXPECT_EQ(buf.dropped(), 1u);
  buf.clear();
  EXPECT_EQ(buf.size(), 0u);
  EXPECT_EQ(buf.dropped(), 0u);
}

TEST_F(TelemetryTest, TraceSpanRecordsIntoBufferAndHistogram) {
  {
    FEDRA_TRACE_SPAN("unit_phase");
  }
  const auto spans = Telemetry::spans().snapshot();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_STREQ(spans[0].name, "unit_phase");
  EXPECT_GE(spans[0].dur_us, 0.0);
  // Mirrored histogram carries the same count.
  bool found = false;
  for (const auto& row : Telemetry::metrics().snapshot().histograms) {
    if (row.name == "unit_phase") found = row.count == 1;
  }
  EXPECT_TRUE(found);
}

TEST_F(TelemetryTest, ScopedTimerRecordsDuration) {
  Histogram h = Telemetry::metrics().histogram("test.timer");
  { ScopedTimer t(h); }
  EXPECT_EQ(h.count(), 1u);
}

TEST_F(TelemetryTest, DisabledModeRecordsNothing) {
  Telemetry::disable();
  ASSERT_FALSE(Telemetry::enabled());
  {
    FEDRA_TRACE_SPAN("disabled_phase");
    Histogram h = Telemetry::metrics().histogram("test.disabled_timer");
    ScopedTimer t(h);
  }
  bool guarded_ran = false;
  FEDRA_TELEMETRY_IF { guarded_ran = true; }
  EXPECT_FALSE(guarded_ran);
  EXPECT_EQ(Telemetry::spans().size(), 0u);
  for (const auto& row : Telemetry::metrics().snapshot().histograms) {
    if (row.name == "test.disabled_timer") {
      EXPECT_EQ(row.count, 0u);
    }
  }
  // Instrumented library code is also a no-op while disabled.
  ThreadPool pool(2);
  pool.parallel_for(0, 100, [](std::size_t) {});
  bool saw_pool_counter = false;
  for (const auto& [name, v] : Telemetry::metrics().snapshot().counters) {
    if (name == "pool.tasks") saw_pool_counter = v > 0;
  }
  EXPECT_FALSE(saw_pool_counter);
}

TEST_F(TelemetryTest, ResetZeroesValuesButKeepsHandlesValid) {
  Counter c = Telemetry::metrics().counter("test.reset");
  c.add(7);
  Telemetry::reset();
  EXPECT_EQ(c.value(), 0u);
  c.add(2);  // handle still bound to the same live cell
  EXPECT_EQ(c.value(), 2u);
}

TEST_F(TelemetryTest, JsonlSinkRoundTrip) {
  const std::string path = ::testing::TempDir() + "fedra_telemetry.jsonl";
  TelemetryConfig cfg;
  cfg.jsonl_path = path;
  Telemetry::enable(cfg);
  Telemetry::reset();

  Telemetry::metrics().counter("rt.counter").add(3);
  Telemetry::metrics().gauge("rt.gauge").set(1.25);
  Telemetry::metrics().gauge("rt.tenth").set(0.1);
  Telemetry::metrics()
      .histogram("rt.hist", std::vector<double>{1.0, 2.0})
      .record(1.5);
  { FEDRA_TRACE_SPAN("rt_phase"); }
  Telemetry::flush();
  const SpanRecord span = recorded_span("rt_phase");

  const std::string content = read_file(path);
  // Shortest round-trip form: 0.1 is written as "0.1", not
  // "0.10000000000000001", and still parses back to the same bits.
  EXPECT_NE(content.find("\"name\":\"rt.tenth\",\"value\":0.1}"),
            std::string::npos);
  EXPECT_NE(content.find("{\"type\":\"counter\",\"name\":\"rt.counter\","
                         "\"value\":3}"),
            std::string::npos);
  EXPECT_NE(content.find("\"type\":\"gauge\",\"name\":\"rt.gauge\""),
            std::string::npos);
  EXPECT_NE(content.find("\"type\":\"histogram\",\"name\":\"rt.hist\""),
            std::string::npos);
  EXPECT_NE(content.find("\"bucket_counts\":[0,1,0]"), std::string::npos);
  EXPECT_NE(content.find("\"type\":\"span\",\"name\":\"rt_phase\""),
            std::string::npos);
  // One JSON object per line, every line brace-delimited.
  std::istringstream lines(content);
  std::string line;
  std::size_t n = 0;
  bool saw_tenth = false;
  bool saw_span = false;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    ++n;
    obs::JsonValue v;
    ASSERT_TRUE(obs::parse_json(line, v)) << line;
    if (v.get_string("name") == "rt.tenth") {
      expect_same_bits(v.get_number("value"), 0.1);
      saw_tenth = true;
    }
    if (v.get_string("name") == "rt_phase" &&
        v.get_string("type") == "span") {
      expect_same_bits(v.get_number("ts_us"), span.start_us);
      expect_same_bits(v.get_number("dur_us"), span.dur_us);
      saw_span = true;
    }
  }
  EXPECT_GE(n, 4u);
  EXPECT_TRUE(saw_tenth);
  EXPECT_TRUE(saw_span);
  std::remove(path.c_str());
}

TEST_F(TelemetryTest, ChromeTraceSinkRoundTrip) {
  const std::string path = ::testing::TempDir() + "fedra_telemetry.trace.json";
  TelemetryConfig cfg;
  cfg.chrome_trace_path = path;
  Telemetry::enable(cfg);
  Telemetry::reset();

  { FEDRA_TRACE_SPAN("chrome_phase"); }
  { FEDRA_TRACE_SPAN("chrome_phase"); }
  Telemetry::flush();
  const std::vector<SpanRecord> spans = Telemetry::spans().snapshot();

  const std::string content = read_file(path);
  obs::JsonValue doc;
  ASSERT_TRUE(obs::parse_json(content, doc));
  const obs::JsonValue* trace_events = doc.find("traceEvents");
  ASSERT_NE(trace_events, nullptr);
  ASSERT_EQ(trace_events->array.size(), spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const obs::JsonValue& e = trace_events->array[i];
    expect_same_bits(e.get_number("ts"), spans[i].start_us);
    expect_same_bits(e.get_number("dur"), spans[i].dur_us);
  }
  EXPECT_NE(content.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(content.find("\"ph\":\"X\""), std::string::npos);
  std::size_t events = 0;
  for (std::size_t pos = content.find("\"name\":\"chrome_phase\"");
       pos != std::string::npos;
       pos = content.find("\"name\":\"chrome_phase\"", pos + 1)) {
    ++events;
  }
  EXPECT_EQ(events, 2u);
  // Balanced braces/brackets => structurally sound JSON for this subset.
  long depth = 0;
  for (char ch : content) {
    if (ch == '{' || ch == '[') ++depth;
    if (ch == '}' || ch == ']') --depth;
    EXPECT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
  std::remove(path.c_str());
}

TEST_F(TelemetryTest, JsonEscapeHandlesQuotesAndControlChars) {
  auto escape = [](std::string_view s) {
    std::string out;
    obs::json_append_escaped(out, s);
    return out;
  };
  EXPECT_EQ(escape("a\"b\\c\n"), "a\\\"b\\\\c\\n");
  EXPECT_EQ(escape(std::string(1, '\x01')), "\\u0001");
}

TEST_F(TelemetryTest, ExponentialBoundsAreGeometricAndSorted) {
  const auto b = exponential_bounds(1.0, 2.0, 5);
  ASSERT_EQ(b.size(), 5u);
  EXPECT_DOUBLE_EQ(b.back(), 16.0);
  EXPECT_TRUE(std::is_sorted(b.begin(), b.end()));
}

TEST_F(TelemetryTest, PrometheusSinkMatchesGoldenString) {
  // Built by hand so the exposition text is fully deterministic: one
  // counter, one gauge with characters outside the Prometheus name
  // alphabet, one histogram whose per-bucket counts must come out
  // CUMULATIVE with a +Inf terminal bucket.
  MetricsSnapshot snap;
  snap.counters.emplace_back("sim.iterations", 3u);
  snap.gauges.emplace_back("rl/kl weird-name", 0.5);
  HistogramSnapshot h;
  h.name = "sim.iter_time_s";
  h.bounds = {1.0, 10.0};
  h.counts = {1, 2, 1};  // two bounded buckets + overflow
  h.count = 4;
  h.sum = 17.5;
  snap.histograms.push_back(h);

  std::ostringstream os;
  write_prometheus(os, snap);
  const std::string golden =
      "# HELP sim_iterations fedra metric sim.iterations\n"
      "# TYPE sim_iterations counter\n"
      "sim_iterations 3\n"
      "# HELP rl_kl_weird_name fedra metric rl/kl weird-name\n"
      "# TYPE rl_kl_weird_name gauge\n"
      "rl_kl_weird_name 0.5\n"
      "# HELP sim_iter_time_s fedra metric sim.iter_time_s\n"
      "# TYPE sim_iter_time_s histogram\n"
      "sim_iter_time_s_bucket{le=\"1\"} 1\n"
      "sim_iter_time_s_bucket{le=\"10\"} 3\n"
      "sim_iter_time_s_bucket{le=\"+Inf\"} 4\n"
      "sim_iter_time_s_sum 17.5\n"
      "sim_iter_time_s_count 4\n";
  EXPECT_EQ(os.str(), golden);
}

TEST_F(TelemetryTest, PrometheusSanitizeRules) {
  EXPECT_EQ(prometheus_sanitize("sim.iter_time_s"), "sim_iter_time_s");
  EXPECT_EQ(prometheus_sanitize("a:b"), "a:b");
  EXPECT_EQ(prometheus_sanitize("9lives"), "_9lives");
  EXPECT_EQ(prometheus_sanitize(""), "_");
}

TEST_F(TelemetryTest, SpanBufferConcurrentOverflowKeepsExactCounts) {
  // Many workers push far past capacity at once; the bounded buffer must
  // keep exactly `capacity` records and count every drop, with no lost or
  // double-counted pushes under contention.
  constexpr std::size_t kCapacity = 256;
  constexpr std::size_t kPushes = 8 * 1024;
  SpanBuffer buf(kCapacity);
  ThreadPool pool(8);
  pool.parallel_for(0, kPushes, [&](std::size_t i) {
    SpanRecord r;
    r.name = "contended";
    r.start_us = static_cast<double>(i);
    r.dur_us = 1.0;
    buf.push(r);
  });
  EXPECT_EQ(buf.size(), kCapacity);
  EXPECT_EQ(buf.dropped(), kPushes - kCapacity);
  EXPECT_EQ(buf.snapshot().size(), kCapacity);
  EXPECT_EQ(buf.capacity(), kCapacity);
}

TEST_F(TelemetryTest, ConcurrentSnapshotsWhileWritersRun) {
  // Readers taking consistent snapshots while writers hammer the same
  // buffer: sizes observed must never exceed capacity and the final
  // totals must balance.
  constexpr std::size_t kCapacity = 128;
  constexpr std::size_t kPushes = 4096;
  SpanBuffer buf(kCapacity);
  ThreadPool pool(8);
  pool.parallel_for(0, kPushes, [&](std::size_t i) {
    if (i % 16 == 0) {
      const auto snap = buf.snapshot();
      EXPECT_LE(snap.size(), kCapacity);
    }
    SpanRecord r;
    r.name = "mixed";
    buf.push(r);
  });
  EXPECT_EQ(buf.size() + buf.dropped(), kPushes);
}

TEST_F(TelemetryTest, JsonlSinkRoundTripUnderPoolContention) {
  // Spans + metrics recorded from 8 workers, flushed repeatedly while
  // writers are still running, then once at the end: the final file must
  // be whole (every line one complete JSON object) and the metric totals
  // exact.
  const std::string path =
      ::testing::TempDir() + "fedra_telemetry_contended.jsonl";
  TelemetryConfig cfg;
  cfg.jsonl_path = path;
  Telemetry::enable(cfg);
  Telemetry::reset();

  Counter c = Telemetry::metrics().counter("contend.counter");
  constexpr std::size_t kTasks = 2000;
  ThreadPool pool(8);
  pool.parallel_for(0, kTasks, [&](std::size_t i) {
    FEDRA_TRACE_SPAN("contend_phase");
    c.add();
    if (i % 256 == 0) Telemetry::flush();  // concurrent with writers
  });
  Telemetry::flush();

  EXPECT_EQ(c.value(), kTasks);
  const std::string content = read_file(path);
  EXPECT_NE(content.find("\"name\":\"contend.counter\",\"value\":2000"),
            std::string::npos);
  std::istringstream lines(content);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    ASSERT_FALSE(line.size() < 2);
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace fedra::telemetry
