#include "nn/regularization.hpp"

#include <cmath>

#include "util/contracts.hpp"

namespace fedra {

Dropout::Dropout(double p, std::uint64_t seed) : p_(p), rng_(seed) {
  FEDRA_EXPECTS(p >= 0.0 && p < 1.0);
}

void Dropout::forward_into(const Matrix& input, Matrix& out) {
  if (!training_ || p_ == 0.0) {
    mask_.release();  // marks "identity" for backward
    out.assign_from(input);
    return;
  }
  const double scale = 1.0 / (1.0 - p_);
  mask_.resize_reuse(input.rows(), input.cols());
  out.resize_reuse(input.rows(), input.cols());
  for (std::size_t i = 0; i < input.size(); ++i) {
    const double keep = rng_.bernoulli(p_) ? 0.0 : scale;
    mask_[i] = keep;
    out[i] = input[i] * keep;
  }
}

void Dropout::backward_into(const Matrix& grad_output, Matrix& grad_in) {
  grad_in.assign_from(grad_output);
  if (mask_.empty()) return;  // identity pass-through
  FEDRA_EXPECTS(grad_output.same_shape(mask_));
  grad_in.hadamard_inplace(mask_);
}

StepDecayLr::StepDecayLr(std::size_t interval, double factor)
    : interval_(interval), factor_(factor) {
  FEDRA_EXPECTS(interval > 0);
  FEDRA_EXPECTS(factor > 0.0 && factor <= 1.0);
}

double StepDecayLr::multiplier(std::size_t step) const {
  return std::pow(factor_, static_cast<double>(step / interval_));
}

CosineLr::CosineLr(std::size_t total_steps, double floor)
    : total_steps_(total_steps), floor_(floor) {
  FEDRA_EXPECTS(total_steps > 0);
  FEDRA_EXPECTS(floor >= 0.0 && floor < 1.0);
}

double CosineLr::multiplier(std::size_t step) const {
  constexpr double kPi = 3.14159265358979323846;
  if (step >= total_steps_) return floor_ > 0.0 ? floor_ : 1e-12;
  const double progress =
      static_cast<double>(step) / static_cast<double>(total_steps_);
  const double cosine = 0.5 * (1.0 + std::cos(kPi * progress));
  return floor_ + (1.0 - floor_) * cosine;
}

WarmupLr::WarmupLr(std::size_t warmup_steps) : warmup_steps_(warmup_steps) {
  FEDRA_EXPECTS(warmup_steps > 0);
}

double WarmupLr::multiplier(std::size_t step) const {
  if (step >= warmup_steps_) return 1.0;
  return static_cast<double>(step + 1) /
         static_cast<double>(warmup_steps_);
}

}  // namespace fedra
