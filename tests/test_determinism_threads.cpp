// Cross-thread-count determinism: the SAME experiment run over thread
// pools of different sizes must produce bit-identical results. FedAvg
// fans local training out over the pool but aggregates sequentially in a
// fixed client order, and the PPO path uses serial matmuls — so pool size
// must never leak into any numerical result. This is the property that
// makes checkpoints portable across machines with different core counts.
#include <gtest/gtest.h>

#include <vector>

#include "core/offline_trainer.hpp"
#include "fl/dataset.hpp"
#include "fl/fedavg.hpp"
#include "sim/experiment_config.hpp"
#include "tensor/ops.hpp"
#include "util/thread_pool.hpp"

namespace fedra {
namespace {

const std::vector<std::size_t> kPoolSizes = {1, 2, 8};

FedAvgServer make_server() {
  ModelSpec spec;
  spec.sizes = {4, 12, 3};
  Rng rng(31);
  auto data = make_gaussian_mixture(200, 4, 3, rng, 3.0, 0.6);
  auto shards = split_dirichlet(data, 6, 1.0, rng);
  std::vector<FlClient> clients;
  for (std::size_t i = 0; i < shards.size(); ++i) {
    clients.emplace_back(std::move(shards[i]), spec,
                         static_cast<std::uint64_t>(500 + i));
  }
  return FedAvgServer(std::move(clients), spec, 9);
}

TEST(ThreadDeterminism, FedAvgRoundIsPoolSizeInvariant) {
  LocalTrainConfig lc;
  lc.tau = 2.0;
  lc.learning_rate = 0.05;

  std::vector<std::vector<Matrix>> results;
  std::vector<double> losses;
  for (std::size_t threads : kPoolSizes) {
    FedAvgServer server = make_server();
    ThreadPool pool(threads);
    RoundMetrics m = server.run_round(lc, pool);
    results.push_back(server.global_params());
    losses.push_back(m.global_loss);
  }
  for (std::size_t t = 1; t < results.size(); ++t) {
    EXPECT_EQ(losses[t], losses[0]);
    ASSERT_EQ(results[t].size(), results[0].size());
    for (std::size_t p = 0; p < results[0].size(); ++p) {
      EXPECT_EQ(results[t][p], results[0][p])
          << "param " << p << " differs between pool sizes "
          << kPoolSizes[0] << " and " << kPoolSizes[t];
    }
  }
}

TEST(ThreadDeterminism, PpoUpdateIsRunToRunDeterministic) {
  // One FedAvg-style experiment episode + one PPO update, repeated. The
  // update runs the actor's epochs as a task on global_pool(), but each
  // side owns its buffers and keeps its serial loss order, so repeated
  // runs (whichever thread takes the task) are bit-identical.
  auto run = [] {
    ExperimentConfig cfg = testbed_config();
    cfg.trace_samples = 400;
    FlEnvConfig env_cfg;
    env_cfg.episode_length = 16;
    env_cfg.slot_seconds = cfg.slot_seconds;
    env_cfg.history_slots = cfg.history_slots;
    TrainerConfig tc;
    tc.episodes = 2;
    tc.buffer_capacity = 16;  // guarantees at least one update
    tc.policy.hidden = {16};
    tc.ppo.update_epochs = 2;
    tc.ppo.minibatch_size = 8;
    OfflineTrainer trainer(FlEnv(build_simulator(cfg), env_cfg), tc, 13);
    auto history = trainer.train();
    std::vector<Matrix> params;
    for (Matrix* p : trainer.agent().policy().params()) {
      params.push_back(*p);
    }
    return std::make_pair(history, params);
  };
  auto [h1, p1] = run();
  auto [h2, p2] = run();
  ASSERT_EQ(h1.size(), h2.size());
  for (std::size_t e = 0; e < h1.size(); ++e) {
    EXPECT_EQ(h1[e].avg_cost, h2[e].avg_cost);
    EXPECT_EQ(h1[e].total_loss, h2[e].total_loss);
  }
  ASSERT_EQ(p1.size(), p2.size());
  for (std::size_t i = 0; i < p1.size(); ++i) EXPECT_EQ(p1[i], p2[i]);
}

}  // namespace
}  // namespace fedra
