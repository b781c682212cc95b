#include "util/rng.hpp"

#include <cmath>

namespace fedra {

double Rng::gaussian() {
  if (gauss_cached_) {
    gauss_cached_ = false;
    return gauss_cache_;
  }
  double u, v, s;
  do {
    u = uniform(-1.0, 1.0);
    v = uniform(-1.0, 1.0);
    s = u * u + v * v;
  } while (s >= 1.0 || s == 0.0);
  const double m = std::sqrt(-2.0 * std::log(s) / s);
  gauss_cache_ = v * m;
  gauss_cached_ = true;
  return u * m;
}

std::size_t Rng::categorical(const std::vector<double>& weights) {
  FEDRA_EXPECTS(!weights.empty());
  double total = 0.0;
  for (double w : weights) {
    FEDRA_EXPECTS(w >= 0.0);
    total += w;
  }
  FEDRA_EXPECTS(total > 0.0);
  double r = uniform() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    r -= weights[i];
    if (r < 0.0) return i;
  }
  return weights.size() - 1;  // numerical edge: fell off the end
}

std::vector<std::size_t> Rng::permutation(std::size_t n) {
  std::vector<std::size_t> idx(n);
  for (std::size_t i = 0; i < n; ++i) idx[i] = i;
  for (std::size_t i = n; i > 1; --i) {
    const auto j =
        static_cast<std::size_t>(uniform_int(0, static_cast<std::int64_t>(i) - 1));
    std::swap(idx[i - 1], idx[j]);
  }
  return idx;
}

}  // namespace fedra
