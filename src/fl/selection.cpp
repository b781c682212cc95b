#include "fl/selection.hpp"

#include <algorithm>

#include "util/contracts.hpp"

namespace fedra {

std::vector<bool> AllSelector::select(const SimulatorBase& sim) {
  return std::vector<bool>(sim.num_devices(), true);
}

RandomSelector::RandomSelector(std::size_t k, std::uint64_t seed)
    : k_(k), rng_(seed) {
  FEDRA_EXPECTS(k > 0);
}

std::vector<bool> RandomSelector::select(const SimulatorBase& sim) {
  const std::size_t n = sim.num_devices();
  const std::size_t k = std::min(k_, n);
  auto perm = rng_.permutation(n);
  std::vector<bool> mask(n, false);
  for (std::size_t i = 0; i < k; ++i) mask[perm[i]] = true;
  return mask;
}

DeadlineSelector::DeadlineSelector(const SimulatorBase& sim, double deadline)
    : deadline_(deadline) {
  FEDRA_EXPECTS(deadline > 0.0);
  est_bandwidth_.reserve(sim.num_devices());
  for (std::size_t i = 0; i < sim.num_devices(); ++i) {
    est_bandwidth_.push_back(sim.trace(i).mean_bandwidth());
  }
}

double DeadlineSelector::estimated_completion(const SimulatorBase& sim,
                                              std::size_t i) const {
  FEDRA_EXPECTS(i < sim.num_devices());
  const DeviceProfile dev = sim.fleet().device(i);
  const double compute = dev.min_compute_time(sim.params().tau);
  const double comm = sim.params().model_bytes / est_bandwidth_[i];
  return compute + comm;
}

std::vector<bool> DeadlineSelector::select(const SimulatorBase& sim) {
  FEDRA_EXPECTS(est_bandwidth_.size() == sim.num_devices());
  const std::size_t n = sim.num_devices();
  std::vector<bool> mask(n, false);
  bool any = false;
  double best_time = 1e300;
  std::size_t best = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const double t = estimated_completion(sim, i);
    if (t <= deadline_) {
      mask[i] = true;
      any = true;
    }
    if (t < best_time) {
      best_time = t;
      best = i;
    }
  }
  if (!any) mask[best] = true;  // a round must still make progress
  return mask;
}

void DeadlineSelector::observe(const IterationResult& result) {
  FEDRA_EXPECTS(result.devices.size() == est_bandwidth_.size());
  for (std::size_t i = 0; i < result.devices.size(); ++i) {
    const DeviceOutcome& d = result.devices[i];
    if (d.participated && d.avg_bandwidth > 0.0) {
      est_bandwidth_[i] = d.avg_bandwidth;
    }
  }
}

}  // namespace fedra
