#include "fl/async_fedavg.hpp"

#include <cmath>

#include "nn/loss.hpp"

namespace fedra {

namespace {
Mlp build_model(const ModelSpec& spec, std::uint64_t seed) {
  Rng rng(seed);
  return Mlp(spec.sizes, spec.hidden, rng);
}
}  // namespace

AsyncFedAvgServer::AsyncFedAvgServer(std::vector<FlClient> clients,
                                     const ModelSpec& spec,
                                     AsyncAggregationConfig config,
                                     std::uint64_t seed)
    : clients_(std::move(clients)),
      global_model_(build_model(spec, seed)),
      config_(config) {
  FEDRA_EXPECTS(!clients_.empty());
  FEDRA_EXPECTS(config.base_mix > 0.0 && config.base_mix <= 1.0);
  FEDRA_EXPECTS(config.staleness_decay >= 0.0);
  global_params_ = global_model_.param_values();
}

double AsyncFedAvgServer::mix_for(std::size_t staleness) const {
  return config_.base_mix /
         std::pow(1.0 + static_cast<double>(staleness),
                  config_.staleness_decay);
}

double AsyncFedAvgServer::apply_update(std::size_t client,
                                       const std::vector<Matrix>& based_on,
                                       std::size_t staleness,
                                       const LocalTrainConfig& config,
                                       std::size_t round_index) {
  FEDRA_EXPECTS(client < clients_.size());
  auto update = clients_[client].train_round(based_on, config, round_index);
  const double alpha = mix_for(staleness);
  FEDRA_EXPECTS(update.params.size() == global_params_.size());
  for (std::size_t p = 0; p < global_params_.size(); ++p) {
    Matrix& g = global_params_[p];
    const Matrix& w = update.params[p];
    FEDRA_EXPECTS(g.same_shape(w));
    for (std::size_t j = 0; j < g.size(); ++j) {
      g[j] = (1.0 - alpha) * g[j] + alpha * w[j];
    }
  }
  ++version_;
  return alpha;
}

double AsyncFedAvgServer::global_loss() {
  double weighted = 0.0;
  double total = 0.0;
  for (auto& c : clients_) {
    const auto d = static_cast<double>(c.num_samples());
    weighted += d * c.local_loss(global_params_);
    total += d;
  }
  return weighted / total;
}

double AsyncFedAvgServer::global_accuracy() {
  global_model_.set_param_values(global_params_);
  double correct_weighted = 0.0;
  double total = 0.0;
  for (auto& c : clients_) {
    const Matrix& logits =
        global_model_.forward_cached(c.data().features, eval_ws_);
    const double acc = accuracy(logits, c.data().labels);
    const auto d = static_cast<double>(c.num_samples());
    correct_weighted += d * acc;
    total += d;
  }
  return correct_weighted / total;
}

}  // namespace fedra
