#include "fl/client.hpp"

#include <cmath>

#include "nn/loss.hpp"
#include "nn/optimizer.hpp"
#include "telemetry/telemetry.hpp"

namespace fedra {

Mlp build_model(const ModelSpec& spec, std::uint64_t seed) {
  Rng rng(seed);
  return Mlp(spec.sizes, ModelSpec::kHidden, rng);
}

FlClient::FlClient(Dataset data, const ModelSpec& spec, std::uint64_t seed)
    : data_(std::move(data)), model_(build_model(spec, seed)), seed_(seed) {
  FEDRA_EXPECTS(data_.size() > 0);
  FEDRA_EXPECTS(!spec.sizes.empty() && spec.sizes.front() == data_.dim());
}

void FlClient::train_round_into(const std::vector<Matrix>& global_params,
                                const LocalTrainConfig& config,
                                std::size_t round_index, ClientUpdate& out) {
  FEDRA_EXPECTS(config.tau > 0.0);
  FEDRA_EXPECTS(config.batch_size > 0);
  namespace tel = fedra::telemetry;
  // Histogram-only (runs on pool workers at per-client frequency; a span
  // per client would swamp the buffer on large rosters).
  tel::Histogram train_hist;
  FEDRA_TELEMETRY_IF {
    static const auto h =
        tel::Telemetry::metrics().histogram("fl.client_train_us");
    train_hist = h;
  }
  tel::ScopedTimer round_timer(train_hist);
  model_.set_param_values(global_params);
  Sgd opt(model_, config.learning_rate);

  // Per-round RNG stream keeps rounds independent yet reproducible.
  Rng rng(seed_ ^ (0x9e3779b97f4a7c15ULL * (round_index + 1)));

  const std::size_t n = data_.size();
  // tau passes over the data = ceil(tau * n / batch) minibatches.
  const auto total_batches = static_cast<std::size_t>(std::ceil(
      config.tau * static_cast<double>(n) /
      static_cast<double>(config.batch_size)));

  out.num_samples = n;
  double loss_acc = 0.0;
  std::size_t batches_done = 0;
  while (batches_done < total_batches) {
    auto perm = rng.permutation(n);
    for (std::size_t start = 0;
         start < n && batches_done < total_batches;
         start += config.batch_size, ++batches_done) {
      const std::size_t end = std::min(start + config.batch_size, n);
      idx_.assign(perm.begin() + static_cast<std::ptrdiff_t>(start),
                  perm.begin() + static_cast<std::ptrdiff_t>(end));
      data_.subset_into(idx_, batch_);
      opt.zero_grad();
      // batch_ is a member, so it outlives the backward pass — the cached
      // layers may hold pointers into it (workspace contract).
      const Matrix& logits = model_.forward_cached(batch_.features, ws_);
      softmax_cross_entropy_into(logits, batch_.labels, loss_);
      model_.backward_cached(loss_.grad, ws_);
      opt.step();
      loss_acc += loss_.value;
    }
  }
  out.avg_loss =
      batches_done > 0 ? loss_acc / static_cast<double>(batches_done) : 0.0;
  // Copy the trained parameters into the caller's (capacity-reused)
  // buffers instead of deep-allocating a fresh snapshot every round.
  const auto ps = model_.params();
  out.params.resize(ps.size());
  for (std::size_t p = 0; p < ps.size(); ++p) {
    out.params[p].assign_from(*ps[p]);
  }
}

double FlClient::local_loss(const std::vector<Matrix>& params) {
  model_.set_param_values(params);
  const Matrix& logits = model_.forward_cached(data_.features, ws_);
  softmax_cross_entropy_into(logits, data_.labels, loss_);
  return loss_.value;
}

}  // namespace fedra
