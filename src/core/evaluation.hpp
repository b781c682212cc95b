// Online evaluation harness: runs any Controller against a simulator for a
// fixed number of iterations (the paper's "experimental results after 400
// iterations", Section V-B2) and collects the per-iteration series behind
// Figures 7 and 8.
//
// The harness is templated over the SteppableSimulator concept and copies
// the simulator as its own type, so a simulator derived from FlSimulator
// (one that times each step, say) runs its own step() override.
#pragma once

#include <chrono>
#include <cstddef>
#include <string>
#include <vector>

#include "sched/controller.hpp"
#include "sim/simulator_base.hpp"
#include "sim/step_options.hpp"

namespace fedra {

/// Per-iteration series of one evaluation run.
struct EvalSeries {
  std::string policy;
  std::vector<double> costs;            ///< Eq. (9) per iteration
  std::vector<double> times;            ///< T^k
  std::vector<double> compute_energies; ///< sum_i computation energy
  std::vector<double> total_energies;   ///< sum_i E_i
  std::vector<double> idle_times;       ///< sum_i idle per iteration
  /// Wall-clock microseconds per controller.decide() call — the serving
  /// metric. Summarize with percentiles (p50/p90/p99), not the mean: the
  /// tail is what a served federation waits on.
  std::vector<double> decide_us;

  double avg_cost() const;
  double avg_time() const;
  double avg_compute_energy() const;
  double avg_total_energy() const;
};

/// Internal: folds detailed results into the plotted series.
EvalSeries fold_eval_series(std::string policy,
                            const std::vector<IterationResult>& results);

/// Full per-iteration results (when callers need device-level detail).
/// Runs on a COPY of the simulator reset to `start_time`: every
/// controller sees identical conditions. When `decide_us` is set, it
/// receives one wall-clock decide() latency (microseconds) per iteration.
template <SteppableSimulator Sim>
std::vector<IterationResult> run_controller_detailed(
    const Sim& sim, Controller& controller, std::size_t iterations,
    double start_time = 0.0, std::vector<double>* decide_us = nullptr) {
  Sim run = sim;  // value copy: identical conditions per controller
  run.reset(start_time);
  std::vector<IterationResult> results;
  results.reserve(iterations);
  if (decide_us != nullptr) {
    decide_us->clear();
    decide_us->reserve(iterations);
  }
  for (std::size_t k = 0; k < iterations; ++k) {
    using EvalClock = std::chrono::steady_clock;
    const auto t0 = EvalClock::now();
    const auto freqs = controller.decide(run);
    if (decide_us != nullptr) {
      decide_us->push_back(
          std::chrono::duration<double, std::micro>(EvalClock::now() - t0)
              .count());
    }
    IterationResult r = run.step(freqs, StepOptions{});
    controller.observe(r);
    results.push_back(std::move(r));
  }
  return results;
}

/// Runs `controller` for `iterations` iterations from `start_time` and
/// folds the per-iteration results into the plotted series.
template <SteppableSimulator Sim>
EvalSeries run_controller(const Sim& sim, Controller& controller,
                          std::size_t iterations, double start_time = 0.0) {
  std::vector<double> decide_us;
  EvalSeries series = fold_eval_series(
      controller.name(), run_controller_detailed(sim, controller, iterations,
                                                 start_time, &decide_us));
  series.decide_us = std::move(decide_us);
  return series;
}

}  // namespace fedra
