#include "sched/deadline_solver.hpp"

#include <algorithm>
#include <cmath>

#include "sim/fleet_pricing.hpp"
#include "util/contracts.hpp"

namespace fedra {

std::vector<double> freqs_for_deadline(
    FleetView devices, const std::vector<double>& est_comm_times,
    double deadline, double tau, double min_freq_fraction) {
  FEDRA_EXPECTS(devices.size() == est_comm_times.size());
  FEDRA_EXPECTS(deadline > 0.0 && tau > 0.0);
  std::vector<double> freqs(devices.size());
  fleet::deadline_freqs(devices.size(), tau, min_freq_fraction, deadline,
                        devices.cycles_per_bit().data(),
                        devices.dataset_bits().data(),
                        devices.max_freq_hz().data(), est_comm_times.data(),
                        freqs.data());
  return freqs;
}

double predicted_cost(FleetView devices,
                      const std::vector<double>& est_comm_times,
                      const std::vector<double>& freqs_hz,
                      const CostParams& params) {
  FEDRA_EXPECTS(devices.size() == est_comm_times.size());
  FEDRA_EXPECTS(devices.size() == freqs_hz.size());
  const std::size_t n = devices.size();
  std::vector<double> time(n);
  std::vector<double> energy_terms(n);
  fleet::predicted_terms(n, params.tau, devices.cycles_per_bit().data(),
                         devices.dataset_bits().data(),
                         devices.capacitance().data(),
                         devices.tx_power_w().data(), est_comm_times.data(),
                         freqs_hz.data(), time.data(), energy_terms.data());
  // Sequential reductions in device order — bit-identical to the legacy
  // per-device loop.
  double makespan = 0.0;
  double energy = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    makespan = std::max(makespan, time[i]);
    energy += energy_terms[i];
  }
  return iteration_cost(makespan, energy, params);
}

double min_deadline(FleetView devices,
                    const std::vector<double>& est_comm_times, double tau) {
  FEDRA_EXPECTS(devices.size() == est_comm_times.size());
  double t = 0.0;
  for (std::size_t i = 0; i < devices.size(); ++i) {
    const double min_cmp =
        tau * devices.cycles_per_bit(i) * devices.dataset_bits(i) /
        devices.max_freq_hz(i);
    t = std::max(t, min_cmp + est_comm_times[i]);
  }
  return t;
}

double max_deadline(FleetView devices,
                    const std::vector<double>& est_comm_times, double tau,
                    double min_freq_fraction) {
  FEDRA_EXPECTS(min_freq_fraction > 0.0);
  FEDRA_EXPECTS(devices.size() == est_comm_times.size());
  double t = 0.0;
  for (std::size_t i = 0; i < devices.size(); ++i) {
    const double floor_hz = min_freq_fraction * devices.max_freq_hz(i);
    const double slow_cmp =
        tau * devices.cycles_per_bit(i) * devices.dataset_bits(i) / floor_hz;
    t = std::max(t, slow_cmp + est_comm_times[i]);
  }
  return t;
}

DeadlineSolution solve_deadline(FleetView devices,
                                const std::vector<double>& est_comm_times,
                                const CostParams& params,
                                double min_freq_fraction, double tolerance) {
  FEDRA_EXPECTS(!devices.empty());
  FEDRA_EXPECTS(tolerance > 0.0);

  const double lo0 = min_deadline(devices, est_comm_times, params.tau);
  const double hi0 =
      max_deadline(devices, est_comm_times, params.tau, min_freq_fraction);
  FEDRA_ENSURES(hi0 >= lo0);

  const auto cost_at = [&](double deadline) {
    const auto freqs = freqs_for_deadline(devices, est_comm_times, deadline,
                                          params.tau, min_freq_fraction);
    return predicted_cost(devices, est_comm_times, freqs, params);
  };

  // Golden-section search on the convex cost(T).
  constexpr double kInvPhi = 0.6180339887498949;
  double lo = lo0;
  double hi = hi0;
  double x1 = hi - kInvPhi * (hi - lo);
  double x2 = lo + kInvPhi * (hi - lo);
  double f1 = cost_at(x1);
  double f2 = cost_at(x2);
  while (hi - lo > tolerance) {
    if (f1 <= f2) {
      hi = x2;
      x2 = x1;
      f2 = f1;
      x1 = hi - kInvPhi * (hi - lo);
      f1 = cost_at(x1);
    } else {
      lo = x1;
      x1 = x2;
      f1 = f2;
      x2 = lo + kInvPhi * (hi - lo);
      f2 = cost_at(x2);
    }
  }

  DeadlineSolution best;
  // Compare the interior optimum against the bracket ends (the optimum can
  // sit exactly at T_min when lambda is tiny).
  best.deadline = 0.5 * (lo + hi);
  double best_cost = cost_at(best.deadline);
  for (double cand : {lo0, hi0}) {
    const double c = cost_at(cand);
    if (c < best_cost) {
      best_cost = c;
      best.deadline = cand;
    }
  }
  best.freqs_hz = freqs_for_deadline(devices, est_comm_times, best.deadline,
                                     params.tau, min_freq_fraction);
  best.predicted_cost = best_cost;
  return best;
}

DeadlineSolution solve_with_bandwidths(
    FleetView devices, const std::vector<double>& est_bandwidths,
    const CostParams& params, double min_freq_fraction) {
  FEDRA_EXPECTS(devices.size() == est_bandwidths.size());
  std::vector<double> comm_times(devices.size());
  for (std::size_t i = 0; i < devices.size(); ++i) {
    FEDRA_EXPECTS(est_bandwidths[i] > 0.0);
    comm_times[i] = params.model_bytes / est_bandwidths[i];
  }
  return solve_deadline(devices, comm_times, params, min_freq_fraction);
}

}  // namespace fedra
