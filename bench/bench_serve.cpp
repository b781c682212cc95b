// Perf harness for the serving engine (ISSUE 6 acceptance gauge): batched
// decide throughput vs the one-at-a-time serving path at an offered load
// of 128 concurrent sessions (acceptance floor: >= 64).
//
// Legs, all driving the SAME GaussianPolicy at Fig.-8 scale dims (50
// devices: S = 450, A = 50, hidden {64, 64}):
//   * direct:       not a service at all — a global mutex around
//                   single-row mean_action(), client threads serialized.
//                   Reported as the in-process calibration yardstick; it
//                   pays no request/response handoff, so comparing against
//                   it conflates batching with the cost of having a
//                   service boundary in the first place;
//   * engine_cap1:  the one-at-a-time serving path — the full engine
//                   (queue, admission, wakeups) with batching off
//                   (max_batch = 1). This is the gate's denominator: both
//                   sides share identical machinery, so the ratio isolates
//                   exactly what micro-batching buys, and machine noise
//                   largely cancels;
//   * engine_cap8 / engine_cap64: micro-batching on, 8- and 64-row caps.
// Each leg reports decides/sec and client-observed latency percentiles
// (p50/p90/p99). The acceptance bar — batched (cap 64) throughput >=
// --min-speedup (default 3) x engine_cap1 — is reflected in the exit code
// and in the JSON ("speedup_ok"), so the perf ctest label enforces it.
// "speedup_vs_direct" is also emitted (reported, not gated).
//
// Before measuring, a bit-exactness check verifies mean_action_batch row b
// == mean_action(row b) bitwise for batch sizes {1, 2, 7, 64} ("bitexact"
// in the JSON; any mismatch fails the run).
//
// Flags: --smoke (fewer decisions; the `perf` ctest label runs this),
//        --decisions N (per session), --min-speedup F, --out PATH.
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "live/http_exporter.hpp"
#include "rl/policy.hpp"
#include "serve/engine.hpp"
#include "serve/session.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace {

using namespace fedra;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kSessions = 128;  // offered load (acceptance floor is 64)
constexpr std::size_t kStateDim = 450;  // 50 devices x 9 features (Fig. 8)
constexpr std::size_t kActionDim = 50;

struct LegResult {
  double decides_per_sec = 0.0;
  double p50_us = 0.0;
  double p90_us = 0.0;
  double p99_us = 0.0;
};

/// Per-session pre-generated request states (so state synthesis never
/// pollutes the timed region).
std::vector<std::vector<std::vector<double>>> make_states(
    std::size_t decisions) {
  std::vector<std::vector<std::vector<double>>> states(kSessions);
  for (std::size_t t = 0; t < kSessions; ++t) {
    Rng rng(1000 + t);
    states[t].resize(decisions);
    for (auto& s : states[t]) {
      s.resize(kStateDim);
      for (auto& x : s) x = rng.uniform();
    }
  }
  return states;
}

/// Runs `decide(session, state)` from kSessions threads, `decisions` calls
/// each, all released together; returns wall-clock throughput and the
/// client-observed latency percentiles.
template <typename DecideFn>
LegResult run_leg(const std::vector<std::vector<std::vector<double>>>& states,
                  DecideFn&& decide) {
  const std::size_t decisions = states[0].size();
  std::vector<std::vector<double>> lat(kSessions);
  std::mutex start_mu;
  std::condition_variable start_cv;
  bool go = false;
  std::atomic<std::size_t> ready{0};
  std::atomic<double> sink{0.0};

  std::vector<std::thread> threads;
  threads.reserve(kSessions);
  for (std::size_t t = 0; t < kSessions; ++t) {
    threads.emplace_back([&, t] {
      lat[t].reserve(decisions);
      ready.fetch_add(1);
      {
        std::unique_lock lock(start_mu);
        start_cv.wait(lock, [&] { return go; });
      }
      double acc = 0.0;
      for (std::size_t d = 0; d < decisions; ++d) {
        const auto t0 = Clock::now();
        acc += decide(t, states[t][d]);
        lat[t].push_back(
            std::chrono::duration<double, std::micro>(Clock::now() - t0)
                .count());
      }
      sink.store(acc);  // keep the decide results observable
    });
  }
  while (ready.load() < kSessions) std::this_thread::yield();
  const auto t0 = Clock::now();
  {
    std::lock_guard lock(start_mu);
    go = true;
  }
  start_cv.notify_all();
  for (auto& th : threads) th.join();
  const double secs = std::chrono::duration<double>(Clock::now() - t0).count();

  std::vector<double> all;
  all.reserve(kSessions * decisions);
  for (const auto& v : lat) all.insert(all.end(), v.begin(), v.end());
  LegResult out;
  out.decides_per_sec =
      static_cast<double>(kSessions * decisions) / secs;
  out.p50_us = percentile(all, 50.0);
  out.p90_us = percentile(all, 90.0);
  out.p99_us = percentile(all, 99.0);
  return out;
}

/// One warmup pass (first-batch allocations, cold caches), then
/// best-of-`reps` measured passes — single-core CI boxes are noisy and the
/// floor check should gauge capability, not scheduler luck.
template <typename DecideFn>
LegResult best_leg(const std::vector<std::vector<std::vector<double>>>& states,
                   DecideFn&& decide, int reps = 3) {
  run_leg(states, decide);  // warmup
  LegResult best;
  for (int r = 0; r < reps; ++r) {
    const LegResult cur = run_leg(states, decide);
    if (cur.decides_per_sec > best.decides_per_sec) best = cur;
  }
  return best;
}

/// mean_action_batch row b must be bit-identical to mean_action(row b).
bool check_bitexact(GaussianPolicy& policy) {
  Rng rng(77);
  Matrix actions;
  for (std::size_t rows : {std::size_t{1}, std::size_t{2}, std::size_t{7},
                           std::size_t{64}}) {
    Matrix states = Matrix::random_gaussian(rows, kStateDim, rng);
    policy.mean_action_batch(states, actions);
    std::vector<double> state(kStateDim);
    for (std::size_t b = 0; b < rows; ++b) {
      for (std::size_t j = 0; j < kStateDim; ++j) state[j] = states(b, j);
      const auto expect = policy.mean_action(state);
      for (std::size_t j = 0; j < kActionDim; ++j) {
        if (actions(b, j) != expect[j]) return false;
      }
    }
  }
  return true;
}

void print_leg(const char* name, const LegResult& r) {
  std::printf("%-14s %14.0f %10.2f %10.2f %10.2f\n", name,
              r.decides_per_sec, r.p50_us, r.p90_us, r.p99_us);
}

void json_leg(std::ofstream& os, const char* key, const LegResult& r,
              bool last) {
  os << "  \"" << key << "\": {\"decides_per_sec\": " << r.decides_per_sec
     << ", \"p50_us\": " << r.p50_us << ", \"p90_us\": " << r.p90_us
     << ", \"p99_us\": " << r.p99_us << "}" << (last ? "" : ",") << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::size_t decisions = 0;  // 0 = mode default
  double min_speedup = 3.0;
  int live_port = -1;  // -1 = exporter off
  std::string out_path = "BENCH_serve.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--decisions" && i + 1 < argc) {
      decisions = static_cast<std::size_t>(std::atoi(argv[++i]));
    } else if (arg == "--min-speedup" && i + 1 < argc) {
      min_speedup = std::atof(argv[++i]);
    } else if (arg == "--live-port" && i + 1 < argc) {
      live_port = std::atoi(argv[++i]);
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: bench_serve [--smoke] [--decisions N] "
                   "[--min-speedup F] [--live-port P] [--out PATH]\n");
      return 1;
    }
  }
  if (decisions == 0) decisions = smoke ? 30 : 200;

  // --live-port P: scrape /metrics and /statusz while the legs run (watch
  // queue depth, shed counts, batch sizes from outside the process).
  live::LiveServer live_server({live_port < 0 ? 0 : live_port});
  if (live_port >= 0) {
    if (!live_server.start()) {
      std::fprintf(stderr, "bench_serve: cannot bind live exporter to %d\n",
                   live_port);
      return 2;
    }
    std::printf("live exporter on http://127.0.0.1:%d\n", live_server.port());
  }

  Rng init_rng(42);
  PolicyConfig pcfg;
  GaussianPolicy policy(kStateDim, kActionDim, pcfg, init_rng);
  serve::GaussianMeanPolicy batch_policy(policy);

  const bool bitexact = check_bitexact(policy);
  std::printf("bit-exactness (batched row == sequential, sizes "
              "{1,2,7,64}): %s\n",
              bitexact ? "OK" : "MISMATCH");

  const auto states = make_states(decisions);
  std::printf("\noffered load: %zu sessions x %zu decisions, S=%zu A=%zu\n",
              kSessions, decisions, kStateDim, kActionDim);
  std::printf("%-14s %14s %10s %10s %10s\n", "leg", "decides/sec", "p50_us",
              "p90_us", "p99_us");

  // One-at-a-time yardstick: global mutex around single-row mean_action.
  std::mutex direct_mu;
  auto direct_fn = [&](std::size_t, const std::vector<double>& state) {
    std::lock_guard lock(direct_mu);
    return policy.mean_action(state)[0];
  };
  const LegResult direct = best_leg(states, direct_fn);
  print_leg("direct", direct);

  auto engine_leg = [&](std::size_t max_batch, double window_us) {
    serve::ServeConfig cfg;
    cfg.max_batch = max_batch;
    cfg.batch_window_us = window_us;
    cfg.max_queue_depth = 4096;  // never shed under this offered load
    serve::InferenceEngine engine(batch_policy, cfg);
    serve::SessionManager sessions(engine, /*base_seed=*/11);
    std::vector<std::uint64_t> ids(kSessions);
    for (auto& id : ids) id = sessions.open();
    std::vector<serve::DecideResult> results(kSessions);
    auto fn = [&](std::size_t t, const std::vector<double>& state) {
      sessions.decide(ids[t], state, results[t]);
      return results[t].action[0];
    };
    const LegResult r = best_leg(states, fn);
    const auto stats = engine.stats();
    std::printf("    (batches=%llu avg_rows=%.1f max_rows=%zu shed=%llu "
                "expired=%llu)\n",
                static_cast<unsigned long long>(stats.batches),
                stats.batches > 0
                    ? static_cast<double>(stats.served) /
                          static_cast<double>(stats.batches)
                    : 0.0,
                stats.max_batch_rows,
                static_cast<unsigned long long>(stats.shed),
                static_cast<unsigned long long>(stats.expired));
    return r;
  };

  const LegResult cap1 = engine_leg(1, 0.0);
  print_leg("engine_cap1", cap1);
  const LegResult cap8 = engine_leg(8, 0.0);
  print_leg("engine_cap8", cap8);
  // The acceptance leg batches with a window: under 64-session load the
  // window almost always fills the batch instead of expiring.
  const LegResult cap64 = engine_leg(64, 300.0);
  print_leg("engine_cap64", cap64);

  const double speedup = cap1.decides_per_sec > 0.0
                             ? cap64.decides_per_sec / cap1.decides_per_sec
                             : 0.0;
  const double speedup_vs_direct =
      direct.decides_per_sec > 0.0
          ? cap64.decides_per_sec / direct.decides_per_sec
          : 0.0;
  const bool speedup_ok = speedup >= min_speedup;
  std::printf("\nbatched (cap 64) vs one-at-a-time serving (cap 1): %.2fx "
              "(floor %.1fx) %s\n",
              speedup, min_speedup, speedup_ok ? "OK" : "FAIL");
  std::printf("batched (cap 64) vs in-process mutex call: %.2fx\n",
              speedup_vs_direct);

  std::ofstream os(out_path);
  if (!os) {
    std::fprintf(stderr, "bench_serve: cannot write %s\n", out_path.c_str());
    return 2;
  }
  os << "{\n  \"schema\": \"fedra.bench.serve.v1\",\n";
  os << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n";
  os << "  \"sessions\": " << kSessions << ",\n";
  os << "  \"decisions_per_session\": " << decisions << ",\n";
  os << "  \"state_dim\": " << kStateDim << ",\n";
  os << "  \"action_dim\": " << kActionDim << ",\n";
  os << "  \"bitexact\": " << (bitexact ? "true" : "false") << ",\n";
  json_leg(os, "direct", direct, false);
  json_leg(os, "engine_cap1", cap1, false);
  json_leg(os, "engine_cap8", cap8, false);
  json_leg(os, "engine_cap64", cap64, false);
  os << "  \"speedup_cap64\": " << speedup << ",\n";
  os << "  \"speedup_vs_direct\": " << speedup_vs_direct << ",\n";
  os << "  \"min_speedup\": " << min_speedup << ",\n";
  os << "  \"speedup_ok\": " << (speedup_ok ? "true" : "false") << "\n}\n";
  os.close();
  std::printf("wrote %s\n", out_path.c_str());

  if (!bitexact) return 3;
  return speedup_ok ? 0 : 1;
}
