// Extension E3 — statistical robustness of the Fig. 7 ordering.
//
// The paper reports one run. This bench repeats the baseline comparison
// over many independently sampled environments (fresh fleet + traces per
// seed) and reports mean ± 95 % CI plus per-seed win rates — quantifying
// whether oracle < heuristic/static < fullspeed is an artifact of one
// seed or a property of the system.
//
// Runs through the sweep engine: seeds execute concurrently on a
// work-stealing pool, and the serial reference loop is re-run to assert
// the aggregate is bitwise identical (exit code 1 on mismatch, so the
// `perf` ctest label enforces the engine contract through
// run_multi_seed, the entry point fedra_cli multiseed uses).
//
// Flags: --smoke (6 seeds x 60 iterations), --pool N (default hardware
//        concurrency), --seeds N, --iters N.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "core/experiment.hpp"
#include "util/thread_pool.hpp"

int main(int argc, char** argv) {
  using namespace fedra;
  bool smoke = false;
  std::size_t pool_size = 0;  // 0 = hardware concurrency
  std::size_t num_seeds = 20;
  std::size_t iterations = 200;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--pool" && i + 1 < argc) {
      pool_size = static_cast<std::size_t>(std::atoi(argv[++i]));
    } else if (arg == "--seeds" && i + 1 < argc) {
      num_seeds = static_cast<std::size_t>(std::atoi(argv[++i]));
    } else if (arg == "--iters" && i + 1 < argc) {
      iterations = static_cast<std::size_t>(std::atoi(argv[++i]));
    } else {
      std::fprintf(stderr,
                   "usage: bench_multiseed [--smoke] [--pool N] [--seeds N] "
                   "[--iters N]\n");
      return 2;
    }
  }
  if (smoke) {
    num_seeds = 6;
    iterations = 60;
  }
  std::printf("Extension E3: multi-seed robustness (%zu seeds x %zu "
              "iterations, N=3)\n\n",
              num_seeds, iterations);

  ExperimentConfig base = testbed_config();
  base.trace_samples = smoke ? 600 : 2000;

  using Clock = std::chrono::steady_clock;
  ThreadPool pool(pool_size);
  const auto roster = baseline_roster();
  const auto t0 = Clock::now();
  auto result = run_multi_seed(base, roster, num_seeds, iterations, &pool);
  const auto t1 = Clock::now();
  auto serial = run_multi_seed(base, roster, num_seeds, iterations);
  const auto t2 = Clock::now();

  std::printf("%s\n", aggregate_header().c_str());
  for (const auto& p : result.policies) {
    std::printf("%s\n", format_aggregate_row(p).c_str());
  }
  const double engine_ms =
      std::chrono::duration<double, std::milli>(t1 - t0).count();
  const double serial_ms =
      std::chrono::duration<double, std::milli>(t2 - t1).count();
  std::printf("\nsweep engine (%zu workers): %.1f ms, serial reference: "
              "%.1f ms\n",
              pool.size(), engine_ms, serial_ms);
  std::printf("(win = lowest avg cost on a seed; DRL is excluded here "
              "because per-seed retraining\nbelongs to the figure benches "
              "— this bench isolates the model-based policies.)\n");

  // Bitwise contract: the parallel aggregate must equal the serial one.
  for (std::size_t p = 0; p < result.policies.size(); ++p) {
    const PolicyAggregate& a = result.policies[p];
    const PolicyAggregate& b = serial.policies[p];
    if (a.cost.mean != b.cost.mean || a.cost.stddev != b.cost.stddev ||
        a.time.mean != b.time.mean ||
        a.compute_energy.mean != b.compute_energy.mean ||
        a.win_rate != b.win_rate) {
      std::fprintf(stderr,
                   "bench_multiseed: FAILED — parallel aggregate for %s "
                   "differs from the serial loop\n",
                   a.policy.c_str());
      return 1;
    }
  }
  return 0;
}
