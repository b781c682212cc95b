#include "core/fairness.hpp"

#include <algorithm>

#include "util/contracts.hpp"

namespace fedra {

double jain_index(std::span<const double> allocations) {
  if (allocations.empty()) return 1.0;
  double sum = 0.0;
  double sq = 0.0;
  for (double x : allocations) {
    FEDRA_EXPECTS(x >= 0.0);
    sum += x;
    sq += x * x;
  }
  if (sq == 0.0) return 1.0;
  return sum * sum / (static_cast<double>(allocations.size()) * sq);
}

DeviceTotals accumulate_device_totals(
    const std::vector<IterationResult>& results) {
  DeviceTotals totals;
  if (results.empty()) return totals;
  const std::size_t n = results.front().devices.size();
  FEDRA_EXPECTS(n > 0);
  totals.energy.assign(n, 0.0);
  totals.compute_energy.assign(n, 0.0);
  totals.idle_time.assign(n, 0.0);
  totals.busy_time.assign(n, 0.0);
  for (const auto& r : results) {
    FEDRA_EXPECTS(r.devices.size() == n);
    for (std::size_t i = 0; i < n; ++i) {
      const DeviceOutcome& d = r.devices[i];
      totals.energy[i] += d.energy;
      totals.compute_energy[i] += d.compute_energy;
      totals.idle_time[i] += d.idle_time;
      totals.busy_time[i] += d.total_time;
    }
  }
  totals.iterations = results.size();
  return totals;
}

FairnessReport fairness_report(const std::vector<IterationResult>& results) {
  FairnessReport report;
  if (results.empty()) return report;
  const auto totals = accumulate_device_totals(results);
  report.energy_jain = jain_index(totals.energy);
  report.busy_time_jain = jain_index(totals.busy_time);

  const auto [mn, mx] =
      std::minmax_element(totals.energy.begin(), totals.energy.end());
  report.max_min_energy_ratio = *mn > 0.0 ? *mx / *mn : 1.0;

  double total_makespan = 0.0;
  for (const auto& r : results) total_makespan += r.iteration_time;
  double total_idle = 0.0;
  for (double idle : totals.idle_time) total_idle += idle;
  const double device_seconds =
      total_makespan * static_cast<double>(totals.energy.size());
  report.idle_fraction =
      device_seconds > 0.0 ? total_idle / device_seconds : 0.0;
  return report;
}

}  // namespace fedra
