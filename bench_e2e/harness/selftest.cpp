// Tests for the benchmark's own arithmetic: self time on hand-built span
// trees, coverage, the tail percentile rule, and the result file format.
// Exit code 0 when every check holds. Run it with `python3 bench_e2e/run.py
// --selftest`.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "obs/json_min.hpp"
#include "result.hpp"
#include "spans.hpp"

namespace {

using namespace bench_e2e;

int g_failures = 0;

#define EXPECT(cond)                                                     \
  do {                                                                   \
    if (!(cond)) {                                                       \
      ++g_failures;                                                      \
      std::fprintf(stderr, "%s:%d: expected %s\n", __FILE__, __LINE__, \
                   #cond);                                               \
    }                                                                    \
  } while (0)

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

SpanRecord span(const char* name, double start, double end, std::uint64_t id,
                std::uint64_t parent, std::uint32_t thread = 0) {
  SpanRecord s;
  s.name = name;
  s.start_us = start;
  s.end_us = end;
  s.id = id;
  s.parent = parent;
  s.thread = thread;
  return s;
}

void nested_children() {
  // a [0,100] > b [10,50] > c [20,30]: each level subtracts only its
  // direct children, so grandchildren are not removed twice.
  const std::vector<SpanRecord> spans{span("a", 0, 100, 1, 0),
                                      span("b", 10, 50, 2, 1),
                                      span("c", 20, 30, 3, 2)};
  const auto self = self_times_us(spans);
  EXPECT(near(self[0], 60));
  EXPECT(near(self[1], 30));
  EXPECT(near(self[2], 10));
  // Self times partition the root: they add up to its wall time, while
  // the busy times (100 + 40 + 10) overcount it.
  EXPECT(near(self[0] + self[1] + self[2], 100));
}

void overlapping_children() {
  // Two same-thread children overlap on [40,60]; the covered part of the
  // parent is their union [10,80], not the sum of their lengths.
  const std::vector<SpanRecord> spans{span("p", 0, 100, 1, 0),
                                      span("x", 10, 60, 2, 1),
                                      span("y", 40, 80, 3, 1)};
  EXPECT(near(self_times_us(spans)[0], 30));
  // A child reaching past its parent is clipped to the parent.
  const std::vector<SpanRecord> spill{span("p", 0, 100, 1, 0),
                                      span("x", 90, 130, 2, 1)};
  EXPECT(near(self_times_us(spill)[0], 90));
}

void cross_thread_children() {
  // Children on other threads run in parallel with the parent's thread;
  // they do not free it, so the parent keeps its full self time, and the
  // children keep theirs.
  const std::vector<SpanRecord> spans{span("sweep", 0, 100, 1, 0, 0),
                                      span("arm", 0, 90, 2, 1, 1),
                                      span("arm", 5, 95, 3, 1, 2),
                                      span("arm", 10, 40, 4, 1, 0)};
  const auto self = self_times_us(spans);
  EXPECT(near(self[0], 70));  // only the same-thread arm is subtracted
  EXPECT(near(self[1], 90));
  EXPECT(near(self[2], 90));
  const auto stats = span_stats(spans);
  EXPECT(stats.at("arm").calls == 3);
  EXPECT(near(stats.at("arm").self_us, 210));
  EXPECT(near(stats.at("arm").p50_us, 90));
}

void coverage_of_job_roots() {
  // Two job windows of 100 us; layer spans cover 95 and 90 of them. The
  // span on another thread and the span outside any job do not count.
  const std::vector<SpanRecord> spans{
      span("bench.job", 0, 100, 1, 0),   span("env.step", 0, 50, 2, 1),
      span("rl.act", 10, 20, 3, 2),      span("rl.update", 50, 95, 4, 1),
      span("sched.decide", 0, 80, 5, 1, 3),
      span("bench.job", 200, 300, 6, 0), span("sim.step", 200, 290, 7, 6),
      span("probe", 400, 500, 8, 0)};
  EXPECT(near(coverage(spans, "bench.job"), 185.0 / 200.0));
  EXPECT(coverage({span("x", 0, 1, 1, 0)}, "bench.job") == 0.0);
}

void live_tracer() {
  Tracer::clear();
  Tracer::set_on(true);
  {
    Span outer("outer");
    { Span inner("inner"); }
    std::thread([] { Span other("other"); }).join();
  }
  Tracer::set_on(false);
  { Span off("off"); }
  const auto spans = Tracer::collect();
  EXPECT(spans.size() == 3);
  const SpanRecord* outer = nullptr;
  const SpanRecord* inner = nullptr;
  const SpanRecord* other = nullptr;
  for (const SpanRecord& s : spans) {
    if (std::strcmp(s.name, "outer") == 0) outer = &s;
    if (std::strcmp(s.name, "inner") == 0) inner = &s;
    if (std::strcmp(s.name, "other") == 0) other = &s;
  }
  EXPECT(outer != nullptr && inner != nullptr && other != nullptr);
  if (outer == nullptr || inner == nullptr || other == nullptr) return;
  EXPECT(inner->parent == outer->id);
  EXPECT(outer->parent == 0);
  EXPECT(other->thread != outer->thread);
  EXPECT(outer->start_us <= inner->start_us && inner->end_us <= outer->end_us);
  Tracer::clear();
  EXPECT(Tracer::collect().empty());
}

std::vector<double> ramp(std::size_t n) {
  std::vector<double> v(n);
  // Descending, so the rule must sort.
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<double>(n - i);
  return v;
}

void tail_rule() {
  Tail t = tail_of(ramp(200));  // p95: rank 190, 10 beyond
  EXPECT(t.ok && t.percentile == 95.0 && t.beyond == 10 && t.value == 190.0);
  EXPECT(t.samples == 200);
  t = tail_of(ramp(100));  // p90: rank 90
  EXPECT(t.ok && t.percentile == 90.0 && t.value == 90.0);
  t = tail_of(ramp(1000));  // p99
  EXPECT(t.ok && t.percentile == 99.0 && t.beyond == 10 && t.value == 990.0);
  t = tail_of(ramp(10000));  // p99.9
  EXPECT(t.ok && t.percentile == 99.9 && t.beyond == 10);
  t = tail_of(ramp(199));  // p95 would leave 9 beyond: falls back to p90
  EXPECT(t.ok && t.percentile == 90.0 && t.beyond >= 10);
  t = tail_of(ramp(20));  // the smallest sample set with a tail: p50
  EXPECT(t.ok && t.percentile == 50.0 && t.beyond == 10 && t.value == 10.0);
  EXPECT(!tail_of(ramp(19)).ok);
  EXPECT(!tail_of({}).ok);
  EXPECT(median_of({3.0, 1.0, 2.0}) == 2.0);
  EXPECT(median_of({}) == 0.0);
}

void result_file_parses() {
  Result r;
  r.workload = "testbed";
  r.seed = 7;
  r.seconds = 10;
  r.fingerprint.nproc = 4;
  r.fingerprint.compiler = "GNU \"12\"";
  r.fingerprint.simd_tier = "avx2";
  const double awkward = 0.1 + 0.2;
  r.metrics = {{"setup_s", awkward, "s", 5, "median over jobs"},
               {"round_ms.tail", 1e-7, "ms", 200, "p95 of 200 samples"}};
  r.checks = {{"oracle_lowest_cost", true}};
  r.attempted = 1000;

  fedra::obs::JsonValue file;
  EXPECT(fedra::obs::parse_json(result_json(r), file));
  EXPECT(file.get_string("schema") == "fedra.bench.e2e.v1");
  const auto* fp = file.find("fingerprint");
  EXPECT(fp != nullptr && fp->get_string("compiler") == "GNU \"12\"");
  const auto* metrics = file.find("metrics");
  EXPECT(metrics != nullptr && metrics->members.size() == 2);
  if (metrics != nullptr && !metrics->members.empty()) {
    // Shortest round-trip printing: the parsed value has the same bits.
    EXPECT(metrics->find("setup_s")->get_number("value") == awkward);
    EXPECT(metrics->find("setup_s")->get_number("samples") == 5);
  }

  fedra::obs::JsonValue line;
  EXPECT(fedra::obs::parse_json(summary_line(r), line));
  EXPECT(line.members.size() == 4);
  EXPECT(line.get_bool("correct") && line.get_number("attempted") == 1000);
  EXPECT(line.find("metrics")->find("round_ms.tail")->get_string("unit") ==
         "ms");

  r.failed = 1;
  EXPECT(fedra::obs::parse_json(summary_line(r), line));
  EXPECT(!line.get_bool("correct", true));
  r.failed = 0;
  r.checks[0].ok = false;
  EXPECT(!r.correct());
  EXPECT(json_number(std::nan("")) == "null");
}

}  // namespace

int main() {
  nested_children();
  overlapping_children();
  cross_thread_children();
  coverage_of_job_roots();
  live_tracer();
  tail_rule();
  result_file_parses();
  if (g_failures != 0) {
    std::fprintf(stderr, "bench_e2e_selftest: %d failures\n", g_failures);
    return 1;
  }
  std::printf("bench_e2e_selftest: all checks passed\n");
  return 0;
}
