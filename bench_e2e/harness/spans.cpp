#include "spans.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <deque>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>

namespace bench_e2e {

namespace {

std::atomic<bool> g_on{false};
std::atomic<std::uint64_t> g_next_id{1};
std::atomic<std::uint32_t> g_next_thread{0};

struct ThreadBuffer {
  std::vector<SpanRecord> spans;
};

struct Registry {
  std::mutex mu;  // guards buffers and names
  std::vector<std::unique_ptr<ThreadBuffer>> buffers;
  std::deque<std::string> names;
};

Registry& registry() {
  static Registry r;
  return r;
}

ThreadBuffer& local_buffer() {
  thread_local ThreadBuffer* buf = [] {
    Registry& r = registry();
    std::lock_guard<std::mutex> lock(r.mu);
    r.buffers.push_back(std::make_unique<ThreadBuffer>());
    return r.buffers.back().get();
  }();
  return *buf;
}

thread_local std::uint64_t t_current_span = 0;

}  // namespace

double now_us() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

bool Tracer::on() { return g_on.load(std::memory_order_relaxed); }

void Tracer::set_on(bool on) { g_on.store(on, std::memory_order_relaxed); }

const char* Tracer::intern(const std::string& name) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  for (const std::string& s : r.names) {
    if (s == name) return s.c_str();
  }
  r.names.push_back(name);
  return r.names.back().c_str();
}

std::vector<SpanRecord> Tracer::collect() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  std::vector<SpanRecord> out;
  for (const auto& b : r.buffers) {
    out.insert(out.end(), b->spans.begin(), b->spans.end());
  }
  return out;
}

void Tracer::clear() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  for (const auto& b : r.buffers) b->spans.clear();
}

std::uint32_t Tracer::thread_index() {
  thread_local const std::uint32_t index =
      g_next_thread.fetch_add(1, std::memory_order_relaxed);
  return index;
}

Span::Span(const char* name) {
  if (!Tracer::on()) return;
  name_ = name;
  id_ = g_next_id.fetch_add(1, std::memory_order_relaxed);
  parent_ = t_current_span;
  t_current_span = id_;
  start_us_ = now_us();
}

Span::~Span() {
  if (name_ == nullptr) return;
  SpanRecord rec;
  rec.end_us = now_us();
  rec.name = name_;
  rec.start_us = start_us_;
  rec.id = id_;
  rec.parent = parent_;
  rec.thread = Tracer::thread_index();
  t_current_span = parent_;
  local_buffer().spans.push_back(rec);
}

std::vector<double> self_times_us(const std::vector<SpanRecord>& spans) {
  std::unordered_map<std::uint64_t, std::size_t> index;
  index.reserve(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;

  // Same-thread children of each span, as intervals clipped to the parent.
  std::vector<std::vector<std::pair<double, double>>> kids(spans.size());
  for (const SpanRecord& s : spans) {
    if (s.parent == 0) continue;
    const auto it = index.find(s.parent);
    if (it == index.end()) continue;
    const SpanRecord& p = spans[it->second];
    if (p.thread != s.thread) continue;
    const double lo = std::max(s.start_us, p.start_us);
    const double hi = std::min(s.end_us, p.end_us);
    if (hi > lo) kids[it->second].emplace_back(lo, hi);
  }

  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    double covered = 0.0;
    double run_lo = 0.0;
    double run_hi = 0.0;
    bool open = false;
    for (const auto& [lo, hi] : iv) {
      if (open && lo <= run_hi) {
        run_hi = std::max(run_hi, hi);
        continue;
      }
      if (open) covered += run_hi - run_lo;
      run_lo = lo;
      run_hi = hi;
      open = true;
    }
    if (open) covered += run_hi - run_lo;
    self[i] = std::max(0.0, spans[i].duration_us() - covered);
  }
  return self;
}

std::map<std::string, SpanStats> span_stats(
    const std::vector<SpanRecord>& spans) {
  const std::vector<double> self = self_times_us(spans);
  std::map<std::string, SpanStats> out;
  std::map<std::string, std::vector<double>> durations;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    SpanStats& s = out[spans[i].name];
    ++s.calls;
    s.busy_us += spans[i].duration_us();
    s.self_us += self[i];
    durations[spans[i].name].push_back(spans[i].duration_us());
  }
  for (auto& [name, d] : durations) out[name].p50_us = median_of(std::move(d));
  return out;
}

double coverage(const std::vector<SpanRecord>& spans, const char* root_name) {
  std::unordered_map<std::uint64_t, std::size_t> index;
  index.reserve(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;
  const std::vector<double> self = self_times_us(spans);

  auto is_root = [&](std::size_t i) {
    return std::strcmp(spans[i].name, root_name) == 0;
  };
  // 1 = under a root through same-thread parents, 0 = not, -1 = unknown.
  std::vector<int> under(spans.size(), -1);
  auto resolve = [&](std::size_t i) {
    std::vector<std::size_t> chain;
    int verdict = 0;
    std::size_t cur = i;
    while (true) {
      if (under[cur] >= 0) {
        verdict = under[cur];
        break;
      }
      chain.push_back(cur);
      const auto it = index.find(spans[cur].parent);
      if (spans[cur].parent == 0 || it == index.end() ||
          spans[it->second].thread != spans[cur].thread) {
        verdict = 0;
        break;
      }
      if (is_root(it->second)) {
        verdict = 1;
        break;
      }
      cur = it->second;
    }
    for (std::size_t c : chain) under[c] = verdict;
    return verdict;
  };

  double wall = 0.0;
  double attributed = 0.0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (is_root(i)) {
      wall += spans[i].duration_us();
    } else if (resolve(i) == 1) {
      attributed += self[i];
    }
  }
  return wall > 0.0 ? attributed / wall : 0.0;
}

double nearest_rank(const std::vector<double>& sorted, unsigned q_bp) {
  const std::size_t n = sorted.size();
  std::size_t rank = (static_cast<std::size_t>(q_bp) * n + 9999) / 10000;
  rank = std::clamp<std::size_t>(rank, 1, n);
  return sorted[rank - 1];
}

Tail tail_of(std::vector<double> samples) {
  static constexpr unsigned kLadder[] = {9999, 9990, 9900, 9500,
                                         9000, 7500, 5000};
  Tail t;
  t.samples = samples.size();
  if (samples.empty()) return t;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  for (unsigned q : kLadder) {
    const std::size_t rank = (static_cast<std::size_t>(q) * n + 9999) / 10000;
    if (n - rank >= 10) {
      t.ok = true;
      t.percentile = q / 100.0;
      t.value = samples[rank - 1];
      t.beyond = n - rank;
      return t;
    }
  }
  return t;
}

double median_of(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  return nearest_rank(samples, 5000);
}

}  // namespace bench_e2e
