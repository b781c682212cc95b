#include "rl/gae.hpp"

#include <cmath>

#include "util/contracts.hpp"

namespace fedra {

std::vector<double> compute_gae(const std::vector<double>& rewards,
                                const std::vector<double>& values,
                                const std::vector<double>& next_values,
                                const std::vector<bool>& episode_ends,
                                double gamma, double lambda) {
  const std::size_t n = rewards.size();
  FEDRA_EXPECTS(values.size() == n && next_values.size() == n &&
                episode_ends.size() == n);
  FEDRA_EXPECTS(gamma >= 0.0 && gamma <= 1.0);
  FEDRA_EXPECTS(lambda >= 0.0 && lambda <= 1.0);
  std::vector<double> advantages(n);
  double gae = 0.0;
  for (std::size_t idx = n; idx-- > 0;) {
    // Truncation bootstraps: delta always uses V(s').
    const double delta =
        rewards[idx] + gamma * next_values[idx] - values[idx];
    if (episode_ends[idx]) gae = 0.0;  // do not smear credit across episodes
    gae = delta + gamma * lambda * gae;
    advantages[idx] = gae;
  }
  return advantages;
}

void normalize_advantages(std::vector<double>& advantages) {
  if (advantages.size() < 2) return;
  double mean = 0.0;
  for (double a : advantages) mean += a;
  mean /= static_cast<double>(advantages.size());
  double var = 0.0;
  for (double a : advantages) var += (a - mean) * (a - mean);
  var /= static_cast<double>(advantages.size() - 1);
  const double sd = std::sqrt(var);
  if (sd < 1e-8) return;
  for (double& a : advantages) a = (a - mean) / sd;
}

}  // namespace fedra
