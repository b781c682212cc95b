#include "fl/fedavg.hpp"

#include "nn/loss.hpp"
#include "obs/ledger.hpp"
#include "telemetry/telemetry.hpp"

namespace fedra {

FedAvgServer::FedAvgServer(std::vector<FlClient> clients,
                           const ModelSpec& spec, std::uint64_t seed)
    : clients_(std::move(clients)), global_model_(build_model(spec, seed)) {
  FEDRA_EXPECTS(!clients_.empty());
  global_params_ = global_model_.param_values();
}

RoundMetrics FedAvgServer::run_round(const LocalTrainConfig& config,
                                     ThreadPool& pool) {
  const std::size_t n = clients_.size();
  // Round-persistent update slots: sized once, so the parameter matrices
  // inside keep their heap blocks across rounds (train_round_into assigns
  // into them with capacity reuse).
  updates_.resize(n);
  std::vector<ClientUpdate>& updates = updates_;
  // Per-device local training is embarrassingly parallel: each client owns
  // its model replica and dataset; `updates` slots are disjoint.
  {
    FEDRA_TRACE_SPAN("local_train");
    pool.parallel_for(0, n, [&](std::size_t i) {
      clients_[i].train_round_into(global_params_, config, round_, updates[i]);
    });
  }

  FEDRA_TRACE_SPAN("aggregate");
  // Weighted average: w <- sum_i (D_i / D) w_i (Eq. 8 weighting).
  double total_samples = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    total_samples += static_cast<double>(updates[i].num_samples);
  }
  FEDRA_ENSURES(total_samples > 0.0);
  // Accumulate into round-persistent scratch, then swap with the global
  // params: both vectors keep their capacity, so steady-state rounds
  // allocate nothing here. Accumulation runs per parameter, clients in
  // order.
  agg_scratch_.resize(global_params_.size());
  for (std::size_t p = 0; p < global_params_.size(); ++p) {
    Matrix& acc = agg_scratch_[p];
    acc.resize_reuse(global_params_[p].rows(), global_params_[p].cols());
    acc.set_zero();
    for (std::size_t i = 0; i < n; ++i) {
      const auto& u = updates[i];
      const double w = static_cast<double>(u.num_samples) / total_samples;
      FEDRA_EXPECTS(u.params[p].same_shape(acc));
      for (std::size_t j = 0; j < acc.size(); ++j) {
        acc[j] += w * u.params[p][j];
      }
    }
  }
  std::swap(global_params_, agg_scratch_);

  RoundMetrics m;
  m.round = round_++;
  m.num_participants = n;
  m.num_delivered = n;
  m.global_loss = global_loss();
  m.global_accuracy = global_accuracy();
  double loss_sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) loss_sum += updates[i].avg_loss;
  m.mean_client_loss = loss_sum / static_cast<double>(n);
  if (obs::RunLedger::enabled()) {
    obs::FlRoundRecord rec;
    rec.round = m.round;
    rec.global_loss = m.global_loss;
    rec.global_accuracy = m.global_accuracy;
    rec.mean_client_loss = m.mean_client_loss;
    rec.num_participants = m.num_participants;
    rec.num_delivered = m.num_delivered;
    obs::RunLedger::record_fl_round(rec);
  }
  return m;
}

double FedAvgServer::global_loss() {
  // F(w) = sum_n D_n F_n(w) / sum_n D_n (Eq. 8).
  double weighted = 0.0;
  double total = 0.0;
  for (auto& c : clients_) {
    const auto d = static_cast<double>(c.num_samples());
    weighted += d * c.local_loss(global_params_);
    total += d;
  }
  return weighted / total;
}

double FedAvgServer::global_accuracy() {
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
