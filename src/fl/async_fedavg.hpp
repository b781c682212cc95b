// Asynchronous model aggregation with staleness-weighted mixing — the
// server-side counterpart of run_async (sim/async_simulator.hpp). On each
// arriving update the global model moves toward the client's model by
//
//   alpha(s) = base_mix / (1 + staleness)^staleness_decay,
//
// the standard polynomial staleness discount (Xie et al.'s FedAsync
// family): fresh updates move the model by base_mix, stale ones
// proportionally less, preventing long-delayed gradients from dragging
// the model backwards.
#pragma once

#include <cstddef>
#include <vector>

#include "fl/client.hpp"

namespace fedra {

struct AsyncAggregationConfig {
  double base_mix = 0.5;        ///< alpha(0)
  double staleness_decay = 0.5; ///< polynomial exponent
};

class AsyncFedAvgServer {
 public:
  AsyncFedAvgServer(std::vector<FlClient> clients, const ModelSpec& spec,
                    AsyncAggregationConfig config, std::uint64_t seed);

  std::size_t num_clients() const { return clients_.size(); }
  std::size_t version() const { return version_; }
  const std::vector<Matrix>& global_params() const { return global_params_; }

  /// Mixing coefficient for a given staleness.
  double mix_for(std::size_t staleness) const;

  /// One async arrival from `client`: the client trains from the CURRENT
  /// global model... except the whole point of async is that it trained
  /// from an older one. `based_on` is the snapshot the client pulled;
  /// the round index seeds the client's minibatch stream. Returns the
  /// applied mixing coefficient.
  double apply_update(std::size_t client, const std::vector<Matrix>& based_on,
                      std::size_t staleness, const LocalTrainConfig& config,
                      std::size_t round_index);

  /// Snapshot of the current global model (what a pulling device gets).
  std::vector<Matrix> snapshot() const { return global_params_; }

  double global_loss();
  double global_accuracy();

 private:
  std::vector<FlClient> clients_;
  Mlp global_model_;
  Workspace eval_ws_;  ///< global_accuracy's forward buffers
  std::vector<Matrix> global_params_;
  AsyncAggregationConfig config_;
  std::size_t version_ = 0;
};

}  // namespace fedra
