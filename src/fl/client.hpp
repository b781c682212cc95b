// A federated client: owns a local dataset and a private model replica,
// and runs tau passes of minibatch SGD from the current global parameters
// (paper Fig. 4: "train the model by tau times"). Clients share nothing
// mutable, so the server can fan them out across the thread pool (CP.3).
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "fl/dataset.hpp"
#include "nn/loss.hpp"
#include "nn/mlp.hpp"
#include "nn/workspace.hpp"
#include "util/rng.hpp"

namespace fedra {

/// Topology shared by the global model and all client replicas.
struct ModelSpec {
  std::vector<std::size_t> sizes;  ///< {in, hidden..., classes}
  /// Activation after every hidden layer of every FL model.
  static constexpr Activation kHidden = Activation::ReLU;
};

/// The model `spec` describes, initialized from `seed`.
Mlp build_model(const ModelSpec& spec, std::uint64_t seed);

/// Hyper-parameters of local training.
struct LocalTrainConfig {
  double tau = 1.0;           ///< local passes over the data per round
  std::size_t batch_size = 32;
  double learning_rate = 0.05;
};

/// Result of one local round.
struct ClientUpdate {
  std::vector<Matrix> params;  ///< trained local parameters
  std::size_t num_samples = 0; ///< D_i in samples — FedAvg weight
  double avg_loss = 0.0;       ///< mean minibatch loss during training
};

class FlClient {
 public:
  /// `spec.sizes.front()` must equal the dataset dimensionality.
  FlClient(Dataset data, const ModelSpec& spec, std::uint64_t seed);

  std::size_t num_samples() const { return data_.size(); }
  const Dataset& data() const { return data_; }

  /// One round: load global params, run ceil(tau) epochs of minibatch SGD
  /// (fractional tau truncates the final epoch proportionally), return the
  /// update. Deterministic given the client seed and round index.
  ClientUpdate train_round(const std::vector<Matrix>& global_params,
                           const LocalTrainConfig& config,
                           std::size_t round_index);

  /// Capacity-reusing variant: writes the update into `out`, reusing its
  /// parameter matrices' heap blocks (shapes are fixed by the topology, so
  /// after the first round this path performs zero tensor allocations —
  /// the residual the fedavg_round bench used to charge to param_values()).
  void train_round_into(const std::vector<Matrix>& global_params,
                        const LocalTrainConfig& config,
                        std::size_t round_index, ClientUpdate& out);

  /// F_i(w) of Eq. (7): mean loss of `params` on the local data.
  double local_loss(const std::vector<Matrix>& params);

 private:
  Dataset data_;
  Mlp model_;
  std::uint64_t seed_;

  // Per-client training scratch, reused across minibatches and rounds so
  // steady-state local SGD performs no tensor heap allocation. Clients are
  // fanned out one-per-thread, so private scratch needs no locking.
  Workspace ws_;
  Dataset batch_;
  LossResult loss_;
  std::vector<std::size_t> idx_;
};

}  // namespace fedra
