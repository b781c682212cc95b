#include "sched/predictive.hpp"

#include <algorithm>

#include "util/contracts.hpp"

namespace fedra {

namespace {
constexpr double kMinPrediction = 1.0;  // bytes/s floor for solver inputs
}

// -------------------------------------------------------------- LastValue

void LastValuePredictor::initialize(
    const std::vector<double>& mean_bandwidths) {
  estimate_ = mean_bandwidths;
}

void LastValuePredictor::observe(
    const std::vector<double>& realized_bandwidths) {
  FEDRA_EXPECTS(realized_bandwidths.size() == estimate_.size());
  for (std::size_t i = 0; i < estimate_.size(); ++i) {
    if (realized_bandwidths[i] > 0.0) estimate_[i] = realized_bandwidths[i];
  }
}

// ------------------------------------------------------------------ EWMA

EwmaPredictor::EwmaPredictor(double beta) : beta_(beta) {
  FEDRA_EXPECTS(beta > 0.0 && beta <= 1.0);
}

void EwmaPredictor::initialize(const std::vector<double>& mean_bandwidths) {
  estimate_ = mean_bandwidths;
}

void EwmaPredictor::observe(const std::vector<double>& realized_bandwidths) {
  FEDRA_EXPECTS(realized_bandwidths.size() == estimate_.size());
  for (std::size_t i = 0; i < estimate_.size(); ++i) {
    if (realized_bandwidths[i] > 0.0) {
      estimate_[i] =
          (1.0 - beta_) * estimate_[i] + beta_ * realized_bandwidths[i];
    }
  }
}

// ----------------------------------------------------------- SlidingMean

SlidingMeanPredictor::SlidingMeanPredictor(std::size_t window)
    : window_(window) {
  FEDRA_EXPECTS(window > 0);
}

void SlidingMeanPredictor::initialize(
    const std::vector<double>& mean_bandwidths) {
  prior_ = mean_bandwidths;
  history_.assign(mean_bandwidths.size(), {});
}

void SlidingMeanPredictor::observe(
    const std::vector<double>& realized_bandwidths) {
  FEDRA_EXPECTS(realized_bandwidths.size() == history_.size());
  for (std::size_t i = 0; i < history_.size(); ++i) {
    if (realized_bandwidths[i] <= 0.0) continue;
    history_[i].push_back(realized_bandwidths[i]);
    if (history_[i].size() > window_) {
      history_[i].erase(history_[i].begin());
    }
  }
}

std::vector<double> SlidingMeanPredictor::predict() const {
  std::vector<double> out(prior_.size());
  for (std::size_t i = 0; i < prior_.size(); ++i) {
    if (history_[i].empty()) {
      out[i] = prior_[i];
      continue;
    }
    double acc = 0.0;
    for (double b : history_[i]) acc += b;
    out[i] = acc / static_cast<double>(history_[i].size());
  }
  return out;
}

// ------------------------------------------------------------------ Holt

HoltPredictor::HoltPredictor(double level_alpha, double trend_beta)
    : alpha_(level_alpha), beta_(trend_beta) {
  FEDRA_EXPECTS(level_alpha > 0.0 && level_alpha <= 1.0);
  FEDRA_EXPECTS(trend_beta >= 0.0 && trend_beta <= 1.0);
}

void HoltPredictor::initialize(const std::vector<double>& mean_bandwidths) {
  level_ = mean_bandwidths;
  trend_.assign(mean_bandwidths.size(), 0.0);
  seen_ = false;
}

void HoltPredictor::observe(const std::vector<double>& realized_bandwidths) {
  FEDRA_EXPECTS(realized_bandwidths.size() == level_.size());
  for (std::size_t i = 0; i < level_.size(); ++i) {
    if (realized_bandwidths[i] <= 0.0) continue;
    const double prev_level = level_[i];
    level_[i] = alpha_ * realized_bandwidths[i] +
                (1.0 - alpha_) * (level_[i] + trend_[i]);
    trend_[i] =
        beta_ * (level_[i] - prev_level) + (1.0 - beta_) * trend_[i];
  }
  seen_ = true;
}

std::vector<double> HoltPredictor::predict() const {
  std::vector<double> out(level_.size());
  for (std::size_t i = 0; i < level_.size(); ++i) {
    out[i] = std::max(level_[i] + (seen_ ? trend_[i] : 0.0), kMinPrediction);
  }
  return out;
}

// ------------------------------------------------------------ Controller

PredictiveController::PredictiveController(
    const SimulatorBase& sim, std::unique_ptr<BandwidthPredictor> predictor)
    : predictor_(std::move(predictor)) {
  FEDRA_EXPECTS(predictor_ != nullptr);
  std::vector<double> means;
  means.reserve(sim.num_devices());
  for (std::size_t i = 0; i < sim.num_devices(); ++i) {
    means.push_back(sim.trace(i).mean_bandwidth());
  }
  predictor_->initialize(means);
}

std::vector<double> PredictiveController::decide(const SimulatorBase& sim) {
  auto estimates = predictor_->predict();
  FEDRA_EXPECTS(estimates.size() == sim.num_devices());
  for (auto& e : estimates) e = std::max(e, kMinPrediction);
  return solve_with_bandwidths(sim.fleet(), estimates, sim.params(),
                               SimulatorBase::kMinFreqFraction)
      .freqs_hz;
}

void PredictiveController::observe(const IterationResult& result) {
  FEDRA_EXPECTS(!result.devices.empty());
  std::vector<double> realized;
  realized.reserve(result.devices.size());
  for (const DeviceOutcome& d : result.devices) {
    realized.push_back(d.avg_bandwidth);
  }
  predictor_->observe(realized);
}

std::string PredictiveController::name() const {
  return "mpc-" + predictor_->name();
}

}  // namespace fedra
