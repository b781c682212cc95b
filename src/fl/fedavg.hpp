// FedAvg parameter server (McMahan et al., the aggregation rule the paper's
// system runs). Each round: broadcast global params, every client trains
// locally for tau passes (fanned out over the thread pool — clients own
// their replicas so rounds are data-race-free), aggregate weighted by D_n
// (Eq. 8's weights), track the global loss for constraint (10).
#pragma once

#include <cstddef>
#include <vector>

#include "fl/client.hpp"
#include "util/thread_pool.hpp"

namespace fedra {

struct RoundMetrics {
  std::size_t round = 0;
  double global_loss = 0.0;     ///< F(w) of Eq. (8) after aggregation
  double global_accuracy = 0.0; ///< on the union of client data
  double mean_client_loss = 0.0;
  std::size_t num_participants = 0;  ///< clients that trained this round
  std::size_t num_delivered = 0;     ///< updates aggregated (all of them)
};

class FedAvgServer {
 public:
  /// Builds the global model and takes ownership of the clients.
  FedAvgServer(std::vector<FlClient> clients, const ModelSpec& spec,
               std::uint64_t seed);

  const std::vector<Matrix>& global_params() const { return global_params_; }

  /// Runs one synchronized FedAvg round over every client; returns its
  /// metrics.
  RoundMetrics run_round(const LocalTrainConfig& config, ThreadPool& pool);

  /// F(w) of Eq. (8): data-size-weighted mean of client losses.
  double global_loss();

  /// Accuracy of the global model over the union of client datasets.
  double global_accuracy();

 private:
  std::vector<FlClient> clients_;
  Mlp global_model_;
  std::vector<Matrix> global_params_;
  std::size_t round_ = 0;

  // Server-side scratch reused across rounds: the aggregation accumulators
  // (swapped with global_params_ each round, so both sides keep their
  // capacity), the per-slot client updates (their parameter matrices keep
  // their heap blocks via train_round_into), and the evaluation workspace
  // for global_accuracy().
  std::vector<Matrix> agg_scratch_;
  std::vector<ClientUpdate> updates_;
  Workspace eval_ws_;
};

}  // namespace fedra
