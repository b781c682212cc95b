// Ablation A7 — local training passes tau.
//
// tau shifts the compute/communication balance of every iteration (Eqs. 1
// and 6 scale with tau; upload size does not). Small tau = communication-
// bound iterations where bandwidth prediction dominates; large tau =
// compute-bound iterations where DVFS matters most. This sweep shows how
// the policies' margins move across that spectrum.
//
// Runs as a SweepEngine grid (tau values on the config axis, the baseline
// roster on the policy axis): arms execute concurrently on a work-stealing
// pool, then the serial reference loop re-runs the grid and every per-arm
// series is asserted bitwise identical (exit code 1 on mismatch).
//
// Flags: --smoke (60 iterations, short traces), --pool N (default
//        hardware concurrency), --serial (skip the pool entirely).
#include <cstdio>
#include <cstdlib>
#include <string>

#include "core/sweep.hpp"
#include "sim/experiment_config.hpp"
#include "util/thread_pool.hpp"

int main(int argc, char** argv) {
  using namespace fedra;
  bool smoke = false;
  bool serial_only = false;
  std::size_t pool_size = 0;  // 0 = hardware concurrency
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--serial") {
      serial_only = true;
    } else if (arg == "--pool" && i + 1 < argc) {
      pool_size = static_cast<std::size_t>(std::atoi(argv[++i]));
    } else {
      std::fprintf(stderr,
                   "usage: bench_ablate_tau [--smoke] [--serial] [--pool N]\n");
      return 2;
    }
  }
  const std::size_t iterations = smoke ? 60 : 300;
  std::printf("Ablation A7: local passes tau (N=3, %zu iterations)\n",
              iterations);
  std::printf("%-6s %-10s %12s %12s %12s\n", "tau", "policy", "avg cost",
              "avg time", "avg Ecmp");

  SweepGrid grid;
  for (double tau : {0.5, 1.0, 2.0, 4.0}) {
    ExperimentConfig cfg = testbed_config();
    cfg.trace_samples = smoke ? 600 : 2000;
    cfg.cost.tau = tau;
    grid.configs.push_back(cfg);
  }
  grid.policies = baseline_roster();
  grid.num_seeds = 1;
  grid.iterations = iterations;
  const SweepEngine engine(std::move(grid));

  std::vector<SweepArmResult> results;
  if (serial_only) {
    results = engine.run(nullptr);
  } else {
    ThreadPool pool(pool_size);
    results = engine.run(&pool);
  }

  for (const SweepArmResult& r : results) {
    const double tau = engine.grid().configs[r.arm.config_index].cost.tau;
    std::printf("%-6.1f %-10s %12.4f %12.4f %12.4f\n", tau,
                r.series.policy.c_str(), r.series.avg_cost(),
                r.series.avg_time(), r.series.avg_compute_energy());
  }

  if (!serial_only) {
    // Bitwise contract: every parallel arm must match the serial loop.
    const auto reference = engine.run(nullptr);
    for (std::size_t a = 0; a < results.size(); ++a) {
      if (results[a].series.costs != reference[a].series.costs ||
          results[a].series.times != reference[a].series.times ||
          results[a].series.compute_energies !=
              reference[a].series.compute_energies) {
        std::fprintf(stderr,
                     "bench_ablate_tau: FAILED — arm %zu differs between "
                     "the pool and the serial loop\n",
                     a);
        return 1;
      }
    }
  }
  return 0;
}
