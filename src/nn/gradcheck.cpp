#include "nn/gradcheck.hpp"

#include <algorithm>
#include <cmath>

namespace fedra {

namespace {
double relative_error(double analytic, double numeric) {
  const double denom =
      std::max({std::abs(analytic), std::abs(numeric), 1e-8});
  return std::abs(analytic - numeric) / denom;
}
}  // namespace

double max_param_grad_error(Module& network,
                            const std::function<double()>& loss_fn,
                            double epsilon) {
  double worst = 0.0;
  auto params = network.params();
  auto grads = network.grads();
  for (std::size_t pi = 0; pi < params.size(); ++pi) {
    Matrix& p = *params[pi];
    const Matrix& g = *grads[pi];
    for (std::size_t j = 0; j < p.size(); ++j) {
      const double orig = p[j];
      p[j] = orig + epsilon;
      const double up = loss_fn();
      p[j] = orig - epsilon;
      const double down = loss_fn();
      p[j] = orig;
      const double numeric = (up - down) / (2.0 * epsilon);
      worst = std::max(worst, relative_error(g[j], numeric));
    }
  }
  return worst;
}

double max_input_grad_error(
    Matrix& input, const Matrix& analytic_input_grad,
    const std::function<double(const Matrix&)>& loss_fn, double epsilon) {
  double worst = 0.0;
  for (std::size_t j = 0; j < input.size(); ++j) {
    const double orig = input[j];
    input[j] = orig + epsilon;
    const double up = loss_fn(input);
    input[j] = orig - epsilon;
    const double down = loss_fn(input);
    input[j] = orig;
    const double numeric = (up - down) / (2.0 * epsilon);
    worst = std::max(worst, relative_error(analytic_input_grad[j], numeric));
  }
  return worst;
}

}  // namespace fedra
