// Perf-regression harness for the tensor/NN hot path. Measures:
//   * GEMM GFLOP/s per shape: the seed's scalar kernel (faithful copy,
//     including its `aik == 0.0` skip) vs the blocked/SIMD kernels behind
//     matmul / matmul_at_b / matmul_a_bt;
//   * ns per PPO update and tensor heap bytes+allocs per update (the
//     workspace passes must stay allocation-free once warm);
//   * the same for one FedAvg round.
// Results go to stdout and to a JSON file (default BENCH_tensor.json,
// schema documented in EXPERIMENTS.md).
//
// Flags: --smoke (tiny shapes, 1 rep — the `perf` ctest label runs this),
//        --reps N (default 5; each measurement reports the best rep),
//        --out PATH (default BENCH_tensor.json).
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "fl/fedavg.hpp"
#include "rl/ppo.hpp"
#include "tensor/ops.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace fedra;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---------------------------------------------------------------------------
// Seed baseline kernels: verbatim ports of the v0 scalar GEMMs, zero-skip
// branch and all, so the speedup column always compares against the same
// yardstick regardless of how src/tensor/ops.cpp evolves.
// ---------------------------------------------------------------------------

void seed_matmul(const Matrix& a, const Matrix& b, Matrix& c) {
  const std::size_t n = a.cols();
  const std::size_t p = b.cols();
  c.resize_reuse(a.rows(), p);
  c.set_zero();
  for (std::size_t i = 0; i < a.rows(); ++i) {
    const double* arow = a.data() + i * n;
    double* crow = c.data() + i * p;
    for (std::size_t k = 0; k < n; ++k) {
      const double aik = arow[k];
      if (aik == 0.0) continue;
      const double* brow = b.data() + k * p;
      for (std::size_t j = 0; j < p; ++j) crow[j] += aik * brow[j];
    }
  }
}

void seed_matmul_at_b(const Matrix& a, const Matrix& b, Matrix& c) {
  const std::size_t m = a.rows();
  const std::size_t n = a.cols();
  const std::size_t p = b.cols();
  c.resize_reuse(n, p);
  c.set_zero();
  for (std::size_t k = 0; k < m; ++k) {
    const double* arow = a.data() + k * n;
    const double* brow = b.data() + k * p;
    for (std::size_t i = 0; i < n; ++i) {
      const double aki = arow[i];
      if (aki == 0.0) continue;
      double* crow = c.data() + i * p;
      for (std::size_t j = 0; j < p; ++j) crow[j] += aki * brow[j];
    }
  }
}

void seed_matmul_a_bt(const Matrix& a, const Matrix& b, Matrix& c) {
  const std::size_t n = a.cols();
  c.resize_reuse(a.rows(), b.rows());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    const double* arow = a.data() + i * n;
    for (std::size_t j = 0; j < b.rows(); ++j) {
      const double* brow = b.data() + j * n;
      double acc = 0.0;
      for (std::size_t k = 0; k < n; ++k) acc += arow[k] * brow[k];
      c(i, j) = acc;
    }
  }
}

// ---------------------------------------------------------------------------
// Measurement helpers
// ---------------------------------------------------------------------------

struct GemmRow {
  const char* op;
  std::size_t m, k, n;
  double seed_gflops = 0.0;
  double blocked_gflops = 0.0;
  double speedup = 0.0;
};

/// Best-of-`reps` GFLOP/s of `fn` on an m*k*n product. Each rep loops the
/// kernel until ~`min_secs` has elapsed so tiny shapes get stable numbers.
template <typename Fn>
double measure_gflops(Fn&& fn, std::size_t m, std::size_t k, std::size_t n,
                      int reps, double min_secs) {
  const double flops = 2.0 * static_cast<double>(m) *
                       static_cast<double>(k) * static_cast<double>(n);
  double best = 0.0;
  for (int r = 0; r < reps; ++r) {
    std::size_t iters = 0;
    const auto t0 = Clock::now();
    double elapsed = 0.0;
    do {
      fn();
      ++iters;
      elapsed = seconds_since(t0);
    } while (elapsed < min_secs);
    const double gflops =
        flops * static_cast<double>(iters) / elapsed / 1e9;
    if (gflops > best) best = gflops;
  }
  return best;
}

GemmRow bench_shape(const char* op, std::size_t m, std::size_t k,
                    std::size_t n, int reps, double min_secs) {
  Rng rng(42);
  Matrix a;
  Matrix b;
  Matrix c;
  GemmRow row{op, m, k, n};
  if (std::strcmp(op, "matmul") == 0) {
    a = Matrix::random_gaussian(m, k, rng);
    b = Matrix::random_gaussian(k, n, rng);
    row.seed_gflops = measure_gflops([&] { seed_matmul(a, b, c); }, m, k, n,
                                     reps, min_secs);
    row.blocked_gflops = measure_gflops([&] { matmul_into(a, b, c); }, m, k,
                                        n, reps, min_secs);
  } else if (std::strcmp(op, "matmul_at_b") == 0) {
    a = Matrix::random_gaussian(k, m, rng);  // result is (a.cols x b.cols)
    b = Matrix::random_gaussian(k, n, rng);
    row.seed_gflops = measure_gflops([&] { seed_matmul_at_b(a, b, c); }, m,
                                     k, n, reps, min_secs);
    row.blocked_gflops = measure_gflops([&] { matmul_at_b_into(a, b, c); },
                                        m, k, n, reps, min_secs);
  } else {
    a = Matrix::random_gaussian(m, k, rng);
    b = Matrix::random_gaussian(n, k, rng);  // result is (a.rows x b.rows)
    row.seed_gflops = measure_gflops([&] { seed_matmul_a_bt(a, b, c); }, m,
                                     k, n, reps, min_secs);
    row.blocked_gflops = measure_gflops([&] { matmul_a_bt_into(a, b, c); },
                                        m, k, n, reps, min_secs);
  }
  row.speedup = row.seed_gflops > 0.0 ? row.blocked_gflops / row.seed_gflops
                                      : 0.0;
  return row;
}

struct TrainStats {
  double ns_per_step = 0.0;
  double alloc_bytes_per_step = 0.0;
  double allocs_per_step = 0.0;
};

/// Steady-state cost of one PPO update (fresh agent per call so warmup is
/// honest): `warmup` updates prime the workspaces, then `steps` timed
/// updates report mean ns and tensor-heap traffic per update.
TrainStats measure_ppo(std::size_t steps, std::size_t warmup) {
  const std::size_t state_dim = 27;  // 3 devices x 9 state features
  const std::size_t action_dim = 3;
  PolicyConfig pcfg;
  PpoConfig cfg;
  cfg.update_epochs = 4;
  cfg.minibatch_size = 64;
  PpoAgent agent(state_dim, action_dim, pcfg, cfg, 17);

  RolloutBuffer buffer(256);
  Rng env_rng(23);
  std::vector<double> state(state_dim);
  while (!buffer.full()) {
    Transition t;
    for (auto& s : state) s = env_rng.uniform();
    t.state = state;
    for (auto& s : state) s = env_rng.uniform();
    t.next_state = state;
    auto sample = agent.act(t.state, env_rng);
    t.action_u = sample.action_u;
    t.log_prob = sample.log_prob;
    t.reward = env_rng.uniform() - 0.5;
    t.value = agent.value(t.state);
    t.next_value = agent.value(t.next_state);
    t.episode_end = buffer.size() % 40 == 39;
    buffer.push(std::move(t));
  }

  Rng update_rng(31);
  for (std::size_t i = 0; i < warmup; ++i) agent.update(buffer, update_rng);

  const TensorAllocStats before = tensor_alloc_stats();
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < steps; ++i) agent.update(buffer, update_rng);
  const double secs = seconds_since(t0);
  const TensorAllocStats after = tensor_alloc_stats();

  TrainStats out;
  const double inv = 1.0 / static_cast<double>(steps);
  out.ns_per_step = secs * 1e9 * inv;
  out.alloc_bytes_per_step =
      static_cast<double>(after.bytes - before.bytes) * inv;
  out.allocs_per_step =
      static_cast<double>(after.allocs - before.allocs) * inv;
  return out;
}

/// Steady-state cost of one FedAvg round (4 IID clients, tau=0.25).
TrainStats measure_fedavg(std::size_t steps, std::size_t warmup) {
  Rng rng(9);
  Dataset data = make_gaussian_mixture(512, 16, 4, rng);
  auto shards = split_iid(data, 4, rng);
  ModelSpec spec;
  spec.sizes = {16, 32, 4};
  std::vector<FlClient> clients;
  for (std::size_t i = 0; i < shards.size(); ++i) {
    clients.emplace_back(std::move(shards[i]), spec, 100 + i);
  }
  FedAvgServer server(std::move(clients), spec, 5);
  LocalTrainConfig ltc;
  ltc.tau = 0.25;
  ThreadPool pool(2);

  for (std::size_t i = 0; i < warmup; ++i) server.run_round(ltc, pool);

  const TensorAllocStats before = tensor_alloc_stats();
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < steps; ++i) server.run_round(ltc, pool);
  const double secs = seconds_since(t0);
  const TensorAllocStats after = tensor_alloc_stats();

  TrainStats out;
  const double inv = 1.0 / static_cast<double>(steps);
  out.ns_per_step = secs * 1e9 * inv;
  out.alloc_bytes_per_step =
      static_cast<double>(after.bytes - before.bytes) * inv;
  out.allocs_per_step =
      static_cast<double>(after.allocs - before.allocs) * inv;
  return out;
}

void write_json(const std::string& path, bool smoke, int reps,
                const std::vector<GemmRow>& gemm, const TrainStats& ppo,
                const TrainStats& fed) {
  std::ofstream os(path);
  if (!os) {
    std::fprintf(stderr, "bench_gemm: cannot write %s\n", path.c_str());
    return;
  }
  os << "{\n  \"schema\": \"fedra.bench.tensor.v2\",\n";
  os << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n";
  os << "  \"reps\": " << reps << ",\n";
  os << "  \"gemm\": [\n";
  for (std::size_t i = 0; i < gemm.size(); ++i) {
    const auto& r = gemm[i];
    os << "    {\"op\": \"" << r.op << "\", \"m\": " << r.m
       << ", \"k\": " << r.k << ", \"n\": " << r.n
       << ", \"seed_gflops\": " << r.seed_gflops
       << ", \"blocked_gflops\": " << r.blocked_gflops
       << ", \"speedup\": " << r.speedup << "}"
       << (i + 1 < gemm.size() ? "," : "") << "\n";
  }
  os << "  ],\n";
  // The keys keep their historical "_reuse" suffix. The allocation-free
  // steady state is pinned by test_ppo and test_fedavg, not by this file.
  auto train_obj = [&os](const char* key, const TrainStats& t, bool last) {
    os << "  \"" << key << "\": {\"ns_reuse\": " << t.ns_per_step
       << ", \"alloc_bytes_reuse\": " << t.alloc_bytes_per_step
       << ", \"allocs_reuse\": " << t.allocs_per_step << "}"
       << (last ? "" : ",") << "\n";
  };
  train_obj("ppo_update", ppo, false);
  train_obj("fedavg_round", fed, true);
  os << "}\n";
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  int reps = 5;
  std::string out_path = "BENCH_tensor.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--reps" && i + 1 < argc) {
      reps = std::atoi(argv[++i]);
      if (reps < 1) reps = 1;
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: bench_gemm [--smoke] [--reps N] [--out PATH]\n");
      return 1;
    }
  }
  if (smoke) reps = 1;
  const double min_secs = smoke ? 0.005 : 0.2;

  std::vector<GemmRow> rows;
  struct Shape {
    std::size_t m, k, n;
  };
  const std::vector<Shape> shapes =
      smoke ? std::vector<Shape>{{32, 32, 32}, {64, 48, 80}}
            : std::vector<Shape>{{32, 32, 32},
                                 {64, 64, 64},
                                 {128, 128, 128},
                                 {256, 256, 256},
                                 {512, 512, 512},
                                 {64, 27, 64},     // policy-net shapes
                                 {32, 16, 32},     // FL client shapes
                                 {1, 27, 64},      // batch-1 PPO forward
                                 {1, 64, 64},
                                 {1, 64, 3},
                                 {1, 450, 64},
                                 {64, 64, 3},      // PPO heads, minibatch
                                 {64, 64, 1}};
  std::printf("%-12s %5s %5s %5s  %12s %15s %8s\n", "op", "m", "k", "n",
              "seed GF/s", "blocked GF/s", "speedup");
  for (const auto& s : shapes) {
    for (const char* op : {"matmul", "matmul_at_b", "matmul_a_bt"}) {
      rows.push_back(bench_shape(op, s.m, s.k, s.n, reps, min_secs));
      const auto& r = rows.back();
      std::printf("%-12s %5zu %5zu %5zu  %12.2f %15.2f %7.2fx\n", r.op, r.m,
                  r.k, r.n, r.seed_gflops, r.blocked_gflops, r.speedup);
    }
  }

  // Four smoke steps, not two, so the mean sits above scheduler noise (a
  // PPO update is ~6 ms).
  const std::size_t train_steps = smoke ? 4 : 20;
  const std::size_t warmup = smoke ? 1 : 3;
  // Each config is measured twice and keeps its best mean. Alloc counts
  // are deterministic — either run reports the same ones.
  auto best_of = [](TrainStats a, const TrainStats& b) {
    if (b.ns_per_step < a.ns_per_step) a.ns_per_step = b.ns_per_step;
    return a;
  };
  const TrainStats ppo = best_of(measure_ppo(train_steps, warmup),
                                 measure_ppo(train_steps, warmup));
  const TrainStats fed = best_of(measure_fedavg(train_steps, warmup),
                                 measure_fedavg(train_steps, warmup));

  auto print_train = [](const char* what, const TrainStats& t) {
    std::printf("\n%s:\n", what);
    std::printf("  time:   %.0f ns per step\n", t.ns_per_step);
    std::printf("  heap:   %.0f bytes (%.1f allocs) per step\n",
                t.alloc_bytes_per_step, t.allocs_per_step);
  };
  print_train("PPO update", ppo);
  print_train("FedAvg round", fed);

  write_json(out_path, smoke, reps, rows, ppo, fed);
  std::printf("\nwrote %s\n", out_path.c_str());
  return 0;
}
