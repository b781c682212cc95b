// Microbenchmarks (google-benchmark) for the hot kernels: GEMM, NN
// forward/backward, trace-integral upload queries, simulator steps and
// policy inference.
//
// Pass `--telemetry-out <prefix>` to emit `<prefix>.jsonl` +
// `<prefix>.trace.json` for `fedra_report phases`; without the flag
// telemetry stays disabled and every instrumented call site is a no-op,
// so the numbers here double as the regression check for that claim.
#include <benchmark/benchmark.h>

#include "bench_common.hpp"
#include "env/fl_env.hpp"
#include "fl/fedavg.hpp"
#include "nn/loss.hpp"
#include "nn/mlp.hpp"
#include "nn/optimizer.hpp"
#include "rl/policy.hpp"
#include "sim/experiment_config.hpp"
#include "tensor/ops.hpp"
#include "trace/generator.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace fedra;

void BM_Gemm(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  auto a = Matrix::random_gaussian(n, n, rng);
  auto b = Matrix::random_gaussian(n, n, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(matmul(a, b));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * n * n *
                          n);
}
BENCHMARK(BM_Gemm)->Arg(32)->Arg(64)->Arg(128)->Arg(256);

void BM_GemmReference(benchmark::State& state) {
  // The naive triple loop the blocked kernels are verified against —
  // benchmarked so the speedup of BM_Gemm over it stays visible in CI.
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  auto a = Matrix::random_gaussian(n, n, rng);
  auto b = Matrix::random_gaussian(n, n, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(matmul_reference(a, b));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * n * n *
                          n);
}
BENCHMARK(BM_GemmReference)->Arg(64)->Arg(256);

void BM_GemmAtB(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  auto a = Matrix::random_gaussian(n, n, rng);
  auto b = Matrix::random_gaussian(n, n, rng);
  Matrix c;
  for (auto _ : state) {
    matmul_at_b_into(a, b, c);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * n * n *
                          n);
}
BENCHMARK(BM_GemmAtB)->Arg(64)->Arg(256);

void BM_GemmABt(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  auto a = Matrix::random_gaussian(n, n, rng);
  auto b = Matrix::random_gaussian(n, n, rng);
  Matrix c;
  for (auto _ : state) {
    matmul_a_bt_into(a, b, c);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * n * n *
                          n);
}
BENCHMARK(BM_GemmABt)->Arg(64)->Arg(256);

void BM_MlpForwardBackward(benchmark::State& state) {
  Rng rng(2);
  Mlp net({64, 128, 128, 10}, Activation::ReLU, rng);
  Matrix x = Matrix::random_gaussian(32, 64, rng);
  std::vector<std::size_t> labels(32);
  for (std::size_t i = 0; i < 32; ++i) labels[i] = i % 10;
  Workspace ws;
  LossResult loss;
  for (auto _ : state) {
    net.zero_grad();
    softmax_cross_entropy_into(net.forward_cached(x, ws), labels, loss);
    net.backward_cached(loss.grad, ws);
    benchmark::DoNotOptimize(loss.value);
  }
}
BENCHMARK(BM_MlpForwardBackward);

void BM_AdamStep(benchmark::State& state) {
  Rng rng(3);
  Mlp net({128, 256, 128}, Activation::Tanh, rng);
  Adam opt(net, 1e-3);
  for (Matrix* g : net.grads()) g->fill(0.01);
  for (auto _ : state) {
    opt.step();
  }
}
BENCHMARK(BM_AdamStep);

void BM_UploadFinishQuery(benchmark::State& state) {
  Rng rng(4);
  auto trace = generate_trace(lte_walking_model(),
                              static_cast<std::size_t>(state.range(0)), rng);
  double t = 0.0;
  for (auto _ : state) {
    t = trace.upload_finish_time(t, 10e6);
    benchmark::DoNotOptimize(t);
    if (t > 1e7) t = 0.0;
  }
}
BENCHMARK(BM_UploadFinishQuery)->Arg(1000)->Arg(100000);

void BM_SimulatorStep(benchmark::State& state) {
  ExperimentConfig cfg = testbed_config();
  cfg.num_devices = static_cast<std::size_t>(state.range(0));
  cfg.trace_pool = 0;
  cfg.trace_samples = 2000;
  auto sim = build_simulator(cfg);
  std::vector<double> freqs;
  for (std::size_t i = 0; i < sim.num_devices(); ++i)
    freqs.push_back(sim.fleet().max_freq_hz(i) * 0.8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.step(freqs, {}));
    if (sim.now() > 1e7) sim.reset(0.0);
  }
}
BENCHMARK(BM_SimulatorStep)->Arg(3)->Arg(50);

void BM_PolicyAct(benchmark::State& state) {
  const auto devices = static_cast<std::size_t>(state.range(0));
  PolicyConfig cfg;
  Rng rng(5);
  GaussianPolicy policy(devices * 9, devices, cfg, rng);
  std::vector<double> obs(devices * 9, 0.5);
  Rng act_rng(6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(policy.act(obs, act_rng));
  }
}
BENCHMARK(BM_PolicyAct)->Arg(3)->Arg(50);

void BM_EnvEpisode(benchmark::State& state) {
  ExperimentConfig cfg = testbed_config();
  cfg.trace_samples = 2000;
  FlEnvConfig env_cfg;
  env_cfg.episode_length = 40;
  FlEnv env(build_simulator(cfg), env_cfg);
  Rng rng(7);
  std::vector<double> action(env.action_dim(), 0.8);
  for (auto _ : state) {
    env.reset(rng);
    bool done = false;
    while (!done) done = env.step(action).done;
  }
}
BENCHMARK(BM_EnvEpisode);

void BM_FedAvgRound(benchmark::State& state) {
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
  for (auto _ : state) {
    benchmark::DoNotOptimize(server.run_round(ltc, pool));
  }
}
BENCHMARK(BM_FedAvgRound);

void BM_OfflineTrainerEpisode(benchmark::State& state) {
  ExperimentConfig cfg = testbed_config();
  cfg.trace_samples = 2000;
  FlEnvConfig env_cfg;
  env_cfg.episode_length = 20;
  TrainerConfig tcfg = recommended_trainer_config(1);
  tcfg.buffer_capacity = 64;  // force PPO updates inside the benchmark
  OfflineTrainer trainer(FlEnv(build_simulator(cfg), env_cfg), tcfg, 11);
  std::size_t episode = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(trainer.run_episode(episode++));
  }
}
BENCHMARK(BM_OfflineTrainerEpisode);

}  // namespace

// BENCHMARK_MAIN expanded so the fedra --telemetry-out flag can be
// stripped before google-benchmark (which rejects unknown flags) parses
// the command line.
int main(int argc, char** argv) {
  fedra::bench::init_telemetry_from_args(argc, argv);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  fedra::telemetry::Telemetry::flush();
  return 0;
}
