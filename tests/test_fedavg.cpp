#include "fl/fedavg.hpp"

#include <gtest/gtest.h>

#include "fl/dataset.hpp"
#include "util/rng.hpp"

namespace fedra {
namespace {

ModelSpec small_spec(std::size_t dim, std::size_t classes) {
  ModelSpec spec;
  spec.sizes = {dim, 16, classes};
  return spec;
}

std::vector<FlClient> make_clients(std::size_t n, double beta,
                                   const ModelSpec& spec, Rng& rng,
                                   std::size_t samples = 600) {
  auto data = make_gaussian_mixture(samples, spec.sizes.front(),
                                    spec.sizes.back(), rng, 3.0, 0.6);
  auto shards = split_dirichlet(data, n, beta, rng);
  std::vector<FlClient> clients;
  for (std::size_t i = 0; i < n; ++i) {
    clients.emplace_back(std::move(shards[i]), spec, 1000 + i);
  }
  return clients;
}

TEST(FlClient, TrainRoundReturnsSampleCount) {
  Rng rng(1);
  auto spec = small_spec(4, 3);
  auto clients = make_clients(2, 1.0, spec, rng);
  FedAvgServer server(std::move(clients), spec, 99);
  // Direct client check via a fresh client.
  Rng rng2(2);
  auto clients2 = make_clients(1, 1.0, spec, rng2, 100);
  LocalTrainConfig cfg;
  auto update = clients2[0].train_round(server.global_params(), cfg, 0);
  EXPECT_EQ(update.num_samples, clients2[0].num_samples());
  EXPECT_EQ(update.params.size(), server.global_params().size());
  EXPECT_GT(update.avg_loss, 0.0);
}

TEST(FlClient, LocalTrainingReducesLocalLoss) {
  Rng rng(3);
  auto spec = small_spec(4, 3);
  auto clients = make_clients(1, 1.0, spec, rng, 300);
  FlClient& c = clients[0];
  Rng model_rng(5);
  Mlp global(spec.sizes, ModelSpec::kHidden, model_rng);
  auto params = global.param_values();
  const double before = c.local_loss(params);
  LocalTrainConfig cfg;
  cfg.tau = 3.0;
  cfg.learning_rate = 0.1;
  auto update = c.train_round(params, cfg, 0);
  const double after = c.local_loss(update.params);
  EXPECT_LT(after, before);
}

TEST(FlClient, DeterministicGivenSeedAndRound) {
  Rng rng(4);
  auto spec = small_spec(3, 2);
  auto data = make_gaussian_mixture(120, 3, 2, rng);
  FlClient a(data, spec, 7);
  FlClient b(data, spec, 7);
  Rng model_rng(6);
  Mlp global(spec.sizes, ModelSpec::kHidden, model_rng);
  LocalTrainConfig cfg;
  auto ua = a.train_round(global.param_values(), cfg, 3);
  auto ub = b.train_round(global.param_values(), cfg, 3);
  for (std::size_t p = 0; p < ua.params.size(); ++p) {
    EXPECT_EQ(ua.params[p], ub.params[p]);
  }
}

TEST(FlClient, DifferentRoundsDifferentBatches) {
  Rng rng(5);
  auto spec = small_spec(3, 2);
  auto data = make_gaussian_mixture(120, 3, 2, rng);
  FlClient c(data, spec, 7);
  Rng model_rng(6);
  Mlp global(spec.sizes, ModelSpec::kHidden, model_rng);
  LocalTrainConfig cfg;
  auto u0 = c.train_round(global.param_values(), cfg, 0);
  auto u1 = c.train_round(global.param_values(), cfg, 1);
  EXPECT_NE(u0.params[0], u1.params[0]);
}

TEST(FedAvg, GlobalLossDecreasesOverRounds) {
  Rng rng(6);
  auto spec = small_spec(6, 3);
  auto clients = make_clients(4, 0.8, spec, rng, 800);
  FedAvgServer server(std::move(clients), spec, 11);
  ThreadPool pool(2);
  LocalTrainConfig cfg;
  cfg.learning_rate = 0.08;
  const double initial = server.global_loss();
  RoundMetrics last{};
  for (int r = 0; r < 8; ++r) last = server.run_round(cfg, pool);
  EXPECT_LT(last.global_loss, initial * 0.8);
  EXPECT_GT(last.global_accuracy, 0.6);
}

TEST(FedAvg, TrainUntilStopsAtEpsilon) {
  // Constraint (10): run rounds until F(w) < epsilon.
  Rng rng(7);
  auto spec = small_spec(4, 2);
  auto clients = make_clients(3, 2.0, spec, rng, 600);
  FedAvgServer server(std::move(clients), spec, 12);
  ThreadPool pool(2);
  LocalTrainConfig cfg;
  cfg.learning_rate = 0.1;
  cfg.tau = 2.0;
  std::vector<RoundMetrics> history;
  while (history.size() < 60 &&
         (history.empty() || history.back().global_loss >= 0.25)) {
    history.push_back(server.run_round(cfg, pool));
  }
  EXPECT_LT(history.back().global_loss, 0.25);
  EXPECT_LT(history.size(), 60u);  // converged before the cap
}

TEST(FedAvg, RoundMetricsMonotoneRoundIndex) {
  Rng rng(8);
  auto spec = small_spec(3, 2);
  auto clients = make_clients(2, 1.0, spec, rng, 200);
  FedAvgServer server(std::move(clients), spec, 13);
  ThreadPool pool(1);
  LocalTrainConfig cfg;
  auto m0 = server.run_round(cfg, pool);
  auto m1 = server.run_round(cfg, pool);
  EXPECT_EQ(m0.round, 0u);
  EXPECT_EQ(m1.round, 1u);
}

TEST(FedAvg, GlobalLossIsDataSizeWeighted) {
  // Eq. (8): F(w) = sum D_n F_n(w) / sum D_n. With one client holding all
  // the data, global loss equals its local loss.
  Rng rng(9);
  auto spec = small_spec(3, 2);
  auto data = make_gaussian_mixture(100, 3, 2, rng);
  std::vector<FlClient> clients;
  clients.emplace_back(data, spec, 1);
  FedAvgServer server(std::move(clients), spec, 14);
  FlClient probe(data, spec, 1);
  EXPECT_NEAR(server.global_loss(), probe.local_loss(server.global_params()),
              1e-12);
}

TEST(FedAvg, ParallelAndSerialPoolsAgree) {
  // Client fan-out must be pool-size invariant (disjoint state, fixed
  // per-client RNG streams).
  auto build = [] {
    Rng rng(10);
    auto spec = small_spec(4, 2);
    auto clients = make_clients(3, 1.0, spec, rng, 240);
    return FedAvgServer(std::move(clients), spec, 15);
  };
  auto s1 = build();
  auto s4 = build();
  ThreadPool p1(1), p4(4);
  LocalTrainConfig cfg;
  auto m1 = s1.run_round(cfg, p1);
  auto m4 = s4.run_round(cfg, p4);
  EXPECT_DOUBLE_EQ(m1.global_loss, m4.global_loss);
  EXPECT_DOUBLE_EQ(m1.global_accuracy, m4.global_accuracy);
}

TEST(FedAvg, RoundIsTensorAllocationFree) {
  // A full round on a two-worker pool (local training on every client,
  // evaluation, aggregation): once one round has sized the workspaces,
  // later rounds must not touch the tensor heap.
  Rng rng(9);
  Dataset data = make_gaussian_mixture(512, 16, 4, rng);
  auto shards = split_iid(data, 4, rng);
  ModelSpec spec;
  spec.sizes = {16, 32, 4};
  std::vector<FlClient> clients;
  for (std::size_t i = 0; i < shards.size(); ++i) {
    clients.emplace_back(std::move(shards[i]), spec, 100 + i);
  }
  FedAvgServer server(std::move(clients), spec, 5);
  LocalTrainConfig ltc;
  ltc.tau = 0.25;
  ThreadPool pool(2);

  server.run_round(ltc, pool);
  const TensorAllocStats before = tensor_alloc_stats();
  for (int i = 0; i < 4; ++i) server.run_round(ltc, pool);
  const TensorAllocStats after = tensor_alloc_stats();
  EXPECT_EQ(after.allocs, before.allocs);
  EXPECT_EQ(after.bytes, before.bytes);
}

TEST(FedAvgPartial, ReweightsOverDeliveredSubset) {
  // Eq. (8) restricted to arrivals: with client 1's update lost in
  // transit, the new global model is the D_n-weighted average of updates
  // 0 and 2 only, renormalized by D_0 + D_2.
  auto spec = small_spec(4, 2);
  Rng rng(21);
  auto clients = make_clients(3, 1.0, spec, rng, 300);
  Rng rng2(21);
  auto probes = make_clients(3, 1.0, spec, rng2, 300);
  FedAvgServer server(std::move(clients), spec, 42);
  const auto w0 = server.global_params();
  ThreadPool pool(2);
  LocalTrainConfig cfg;
  auto u0 = probes[0].train_round(w0, cfg, 0);
  auto u2 = probes[2].train_round(w0, cfg, 0);
  auto m = server.run_round(cfg, pool, {0, 1, 2}, {0, 2});
  EXPECT_EQ(m.num_participants, 3u);
  EXPECT_EQ(m.num_delivered, 2u);
  const double total =
      static_cast<double>(u0.num_samples + u2.num_samples);
  const auto& w1 = server.global_params();
  for (std::size_t p = 0; p < w1.size(); ++p) {
    for (std::size_t j = 0; j < w1[p].size(); ++j) {
      const double expected =
          (static_cast<double>(u0.num_samples) * u0.params[p][j] +
           static_cast<double>(u2.num_samples) * u2.params[p][j]) /
          total;
      EXPECT_NEAR(w1[p][j], expected, 1e-12);
    }
  }
}

TEST(FedAvgPartial, EmptyDeliveredLeavesGlobalModelUnchanged) {
  // A fully wasted round: everyone trained, nothing arrived.
  auto spec = small_spec(3, 2);
  Rng rng(22);
  auto clients = make_clients(2, 1.0, spec, rng, 200);
  FedAvgServer server(std::move(clients), spec, 43);
  const auto before = server.global_params();
  ThreadPool pool(1);
  LocalTrainConfig cfg;
  auto m = server.run_round(cfg, pool, {0, 1}, {});
  EXPECT_EQ(m.num_participants, 2u);
  EXPECT_EQ(m.num_delivered, 0u);
  ASSERT_EQ(server.global_params().size(), before.size());
  for (std::size_t p = 0; p < before.size(); ++p) {
    EXPECT_EQ(server.global_params()[p], before[p]);
  }
}

TEST(FedAvgPartial, FullDeliveryMatchesSelectionOverload) {
  auto build = [] {
    auto spec = small_spec(3, 2);
    Rng rng(23);
    auto clients = make_clients(3, 1.0, spec, rng, 240);
    return FedAvgServer(std::move(clients), spec, 44);
  };
  auto a = build();
  auto b = build();
  ThreadPool pool(2);
  LocalTrainConfig cfg;
  std::vector<std::size_t> roster = {0, 2};
  auto ma = a.run_round(cfg, pool, roster);
  auto mb = b.run_round(cfg, pool, roster, roster);
  EXPECT_DOUBLE_EQ(ma.global_loss, mb.global_loss);
  for (std::size_t p = 0; p < a.global_params().size(); ++p) {
    EXPECT_EQ(a.global_params()[p], b.global_params()[p]);
  }
}

TEST(FedAvgPartialDeathTest, DeliveredMustBeSubsetOfParticipants) {
  auto spec = small_spec(3, 2);
  Rng rng(24);
  auto clients = make_clients(3, 1.0, spec, rng, 150);
  FedAvgServer server(std::move(clients), spec, 45);
  ThreadPool pool(1);
  LocalTrainConfig cfg;
  std::vector<std::size_t> participants = {0, 1};
  std::vector<std::size_t> delivered = {2};  // never trained this round
  EXPECT_DEATH(server.run_round(cfg, pool, participants, delivered),
               "precondition");
}

}  // namespace
}  // namespace fedra
