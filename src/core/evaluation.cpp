#include "core/evaluation.hpp"

#include "util/stats.hpp"

namespace fedra {

double EvalSeries::avg_cost() const { return mean(costs); }
double EvalSeries::avg_time() const { return mean(times); }
double EvalSeries::avg_compute_energy() const {
  return mean(compute_energies);
}
double EvalSeries::avg_total_energy() const { return mean(total_energies); }

EvalSeries fold_eval_series(std::string policy,
                            const std::vector<IterationResult>& results) {
  EvalSeries series;
  series.policy = std::move(policy);
  series.costs.reserve(results.size());
  series.times.reserve(results.size());
  series.compute_energies.reserve(results.size());
  series.total_energies.reserve(results.size());
  series.idle_times.reserve(results.size());
  for (const auto& r : results) {
    series.costs.push_back(r.cost);
    series.times.push_back(r.iteration_time);
    series.compute_energies.push_back(r.total_compute_energy);
    series.total_energies.push_back(r.total_energy);
    double idle = 0.0;
    for (const DeviceOutcome& d : r.devices) idle += d.idle_time;
    series.idle_times.push_back(idle);
  }
  return series;
}

}  // namespace fedra
