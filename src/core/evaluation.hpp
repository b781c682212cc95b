// Online evaluation harness: runs any Controller against a simulator for a
// fixed number of iterations (the paper's "experimental results after 400
// iterations", Section V-B2) and collects the per-iteration series behind
// Figures 7 and 8.
//
// The harness is templated over the SteppableSimulator concept and copies
// the simulator as its own type, so a simulator derived from FlSimulator
// (one that times each step, say) runs its own step() override — and
// EvalOptions carries the round conditions (deadline, fault model) shared
// by every controller in a comparison.
#pragma once

#include <chrono>
#include <cstddef>
#include <string>
#include <vector>

#include "fault/fault_model.hpp"
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
  std::vector<std::size_t> failed_devices;  ///< updates lost per iteration
  /// Wall-clock microseconds per controller.decide() call — the serving
  /// metric. Summarize with percentiles (p50/p90/p99), not the mean: the
  /// tail is what a served federation waits on.
  std::vector<double> decide_us;

  double avg_cost() const;
  double avg_time() const;
  double avg_compute_energy() const;
  double avg_total_energy() const;
  /// Fraction of scheduled updates lost across the run (0 fault-free).
  double failure_rate(std::size_t num_devices) const;
};

/// Shared run conditions for one evaluation. Implicitly constructible from
/// a double so legacy run_controller(sim, c, iters, start_time) calls keep
/// compiling.
///
/// Round conditions (deadline, fault model, outcome layout, thread pool)
/// live in the embedded StepOptions rather than drifting copies of its
/// fields: whatever `round` carries is forwarded verbatim to every
/// step(). round.fault_model is reset() at the start of the run so each
/// controller faces the identical fault sequence.
struct EvalOptions {
  double start_time = 0.0;
  /// Per-round options forwarded to every step() of the run. Set
  /// participating/dry_run_at at your own peril — the harness forwards
  /// the struct as-is.
  StepOptions round;
  /// When set, receives one wall-clock decide() latency (microseconds)
  /// per iteration. run_controller wires this into EvalSeries.decide_us.
  std::vector<double>* decide_us_out = nullptr;

  EvalOptions() = default;
  EvalOptions(double start) : start_time(start) {}  // NOLINT(runtime/explicit)
};

/// Internal: folds detailed results into the plotted series.
EvalSeries fold_eval_series(std::string policy,
                            const std::vector<IterationResult>& results);

/// Full per-iteration results (when callers need device-level detail).
/// Runs on a COPY of the simulator: every controller sees identical
/// conditions, including the fault sequence.
template <SteppableSimulator Sim>
std::vector<IterationResult> run_controller_detailed(
    const Sim& sim, Controller& controller, std::size_t iterations,
    EvalOptions options = {}) {
  Sim run = sim;  // value copy: identical conditions per controller
  run.reset(options.start_time);
  if (options.round.fault_model != nullptr) options.round.fault_model->reset();
  const StepOptions& step_options = options.round;
  std::vector<IterationResult> results;
  results.reserve(iterations);
  if (options.decide_us_out != nullptr) {
    options.decide_us_out->clear();
    options.decide_us_out->reserve(iterations);
  }
  for (std::size_t k = 0; k < iterations; ++k) {
    using EvalClock = std::chrono::steady_clock;
    const auto t0 = EvalClock::now();
    const auto freqs = controller.decide(run);
    if (options.decide_us_out != nullptr) {
      options.decide_us_out->push_back(
          std::chrono::duration<double, std::micro>(EvalClock::now() - t0)
              .count());
    }
    IterationResult r = run.step(freqs, step_options);
    controller.observe(r);
    results.push_back(std::move(r));
  }
  return results;
}

/// Runs `controller` for `iterations` iterations under `options` and folds
/// the per-iteration results into the plotted series.
template <SteppableSimulator Sim>
EvalSeries run_controller(const Sim& sim, Controller& controller,
                          std::size_t iterations, EvalOptions options = {}) {
  std::vector<double> decide_us;
  if (options.decide_us_out == nullptr) options.decide_us_out = &decide_us;
  EvalSeries series = fold_eval_series(
      controller.name(),
      run_controller_detailed(sim, controller, iterations, options));
  series.decide_us = std::move(*options.decide_us_out);
  return series;
}

}  // namespace fedra
