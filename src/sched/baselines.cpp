#include "sched/baselines.hpp"

#include <algorithm>
#include <cmath>

#include "util/contracts.hpp"

namespace fedra {

// ---------------------------------------------------------------- FullSpeed

std::vector<double> FullSpeedController::decide(const SimulatorBase& sim) {
  const FleetView fleet = sim.fleet();
  std::vector<double> freqs;
  freqs.reserve(fleet.size());
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    freqs.push_back(fleet.max_freq_hz(i));
  }
  return freqs;
}

// ------------------------------------------------------------------- Static

StaticController::StaticController(const SimulatorBase& sim,
                                   std::size_t probe_samples, Rng& rng) {
  FEDRA_EXPECTS(probe_samples > 0);
  std::vector<double> est(sim.num_devices());
  for (std::size_t i = 0; i < sim.num_devices(); ++i) {
    const auto& trace = sim.trace(i);
    double acc = 0.0;
    for (std::size_t s = 0; s < probe_samples; ++s) {
      acc += trace.bandwidth_at(rng.uniform(0.0, trace.duration()));
    }
    est[i] = acc / static_cast<double>(probe_samples);
  }
  freqs_ = solve_with_bandwidths(sim.fleet(), est, sim.params(),
                                 SimulatorBase::kMinFreqFraction)
               .freqs_hz;
}

std::vector<double> StaticController::decide(const SimulatorBase& sim) {
  FEDRA_EXPECTS(freqs_.size() == sim.num_devices());
  return freqs_;
}

// ---------------------------------------------------------------- Heuristic

HeuristicController::HeuristicController(const SimulatorBase& sim) {
  last_bandwidths_.reserve(sim.num_devices());
  for (std::size_t i = 0; i < sim.num_devices(); ++i) {
    last_bandwidths_.push_back(sim.trace(i).mean_bandwidth());
  }
}

std::vector<double> HeuristicController::decide(const SimulatorBase& sim) {
  FEDRA_EXPECTS(last_bandwidths_.size() == sim.num_devices());
  return solve_with_bandwidths(sim.fleet(), last_bandwidths_, sim.params(),
                               SimulatorBase::kMinFreqFraction)
      .freqs_hz;
}

void HeuristicController::observe(const IterationResult& result) {
  FEDRA_EXPECTS(result.devices.size() == last_bandwidths_.size());
  for (std::size_t i = 0; i < result.devices.size(); ++i) {
    const double bw = result.devices[i].avg_bandwidth;
    if (bw > 0.0) last_bandwidths_[i] = bw;
  }
}

// ------------------------------------------------------------------- Oracle

namespace {

constexpr std::size_t kOracleGridPoints = 48;

}  // namespace

std::vector<double> OracleController::freqs_for_true_deadline(
    const SimulatorBase& sim, double deadline) const {
  // For each device independently: the smallest frequency whose TRUE
  // completion time (compute + trace-integral upload) is <= deadline.
  // Upload finish time never decreases as its start moves later, so the
  // compute budget is exact: compute may run until the latest upload start
  // that still meets now + deadline, and no later.
  const double start = sim.now();
  const auto& params = sim.params();
  std::vector<double> freqs(sim.num_devices());
  for (std::size_t i = 0; i < sim.num_devices(); ++i) {
    const DeviceProfile d = sim.fleet().device(i);
    const double budget =
        sim.trace(i).latest_start(start + deadline, params.model_bytes) -
        start;
    const double floor_hz = SimulatorBase::kMinFreqFraction * d.max_freq_hz;
    freqs[i] = budget > 0.0
                   ? std::clamp(d.freq_for_compute_time(budget, params.tau),
                                floor_hz, d.max_freq_hz)
                   : d.max_freq_hz;  // even flat-out misses it
  }
  return freqs;
}

double OracleController::true_cost(const SimulatorBase& sim,
                                   double deadline) const {
  // Only the cost is read, so skip the per-device rows (cost is
  // bit-identical across outcome layouts).
  StepOptions options;
  options.outcomes = OutcomeLayout::kSummary;
  return sim.preview(freqs_for_true_deadline(sim, deadline), options).cost;
}

std::vector<double> OracleController::decide(const SimulatorBase& sim) {
  const double start = sim.now();
  const auto& params = sim.params();

  // Bracket: fastest possible finish .. everyone at the frequency floor.
  double lo = 0.0;
  double hi = 0.0;
  for (std::size_t i = 0; i < sim.num_devices(); ++i) {
    const DeviceProfile d = sim.fleet().device(i);
    const auto& trace = sim.trace(i);
    const double cmp_fast = d.min_compute_time(params.tau);
    lo = std::max(lo, cmp_fast + trace.upload_duration(start + cmp_fast,
                                                       params.model_bytes));
    const double floor_hz = SimulatorBase::kMinFreqFraction * d.max_freq_hz;
    const double cmp_slow = d.compute_time(floor_hz, params.tau);
    hi = std::max(hi, cmp_slow + trace.upload_duration(start + cmp_slow,
                                                       params.model_bytes));
  }
  hi = std::max(hi, lo * (1.0 + 1e-9));

  // Realized cost(T) need not be convex (the trace integral is piecewise
  // linear), so scan a grid first, then golden-section the best bracket.
  double best_t = lo;
  double best_c = true_cost(sim, lo);
  const double step = (hi - lo) / static_cast<double>(kOracleGridPoints - 1);
  for (std::size_t g = 1; g < kOracleGridPoints; ++g) {
    const double t = lo + static_cast<double>(g) * step;
    const double c = true_cost(sim, t);
    if (c < best_c) {
      best_c = c;
      best_t = t;
    }
  }

  constexpr double kInvPhi = 0.6180339887498949;
  double a = std::max(lo, best_t - step);
  double b = std::min(hi, best_t + step);
  double x1 = b - kInvPhi * (b - a);
  double x2 = a + kInvPhi * (b - a);
  double f1 = true_cost(sim, x1);
  double f2 = true_cost(sim, x2);
  for (int iter = 0; iter < 40 && b - a > 1e-4; ++iter) {
    if (f1 <= f2) {
      b = x2;
      x2 = x1;
      f2 = f1;
      x1 = b - kInvPhi * (b - a);
      f1 = true_cost(sim, x1);
    } else {
      a = x1;
      x1 = x2;
      f1 = f2;
      x2 = a + kInvPhi * (b - a);
      f2 = true_cost(sim, x2);
    }
  }
  const double refined = 0.5 * (a + b);
  if (true_cost(sim, refined) < best_c) best_t = refined;
  return freqs_for_true_deadline(sim, best_t);
}

}  // namespace fedra
