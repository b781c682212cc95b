// Generalized Advantage Estimation (Schulman et al.). Episode ends in this
// system are time-limit truncations, not environment terminations, so the
// one-step TD residual always bootstraps with V(s'); the done flag only
// cuts the lambda-recursion across episode boundaries.
#pragma once

#include <vector>

namespace fedra {

/// Per-step advantages; adding V(s_t) gives the lambda-return.
std::vector<double> compute_gae(const std::vector<double>& rewards,
                                const std::vector<double>& values,
                                const std::vector<double>& next_values,
                                const std::vector<bool>& episode_ends,
                                double gamma, double lambda);

/// Normalizes advantages to zero mean / unit std in place (no-op for
/// fewer than two elements or ~zero variance).
void normalize_advantages(std::vector<double>& advantages);

}  // namespace fedra
