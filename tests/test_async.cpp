#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "fl/async_fedavg.hpp"
#include "fl/dataset.hpp"
#include "sim/async_simulator.hpp"
#include "sim/experiment_config.hpp"
#include "trace/generator.hpp"

namespace fedra {
namespace {

DeviceProfile uniform_device(double cycles, double max_freq) {
  DeviceProfile d;
  d.cycles_per_bit = 1.0;
  d.dataset_bits = cycles;
  d.capacitance = 1e-28;
  d.max_freq_hz = max_freq;
  d.tx_power_w = 1.0;
  return d;
}

CostParams tiny_params(double model_bytes = 100.0) {
  CostParams p;
  p.tau = 1.0;
  p.model_bytes = model_bytes;
  return p;
}

TEST(AsyncSim, TwoIdenticalDevicesAlternate) {
  // cycle time = compute 1 s + upload 1 s = 2 s each. Both start at t=0,
  // finish together at t=2, 4, 6, ... In an 11 s horizon each completes 5.
  AsyncFlSimulator sim(
      {uniform_device(1e9, 1e9), uniform_device(1e9, 1e9)},
      {constant_trace(100.0, 50), constant_trace(100.0, 50)},
      tiny_params());
  auto r = sim.run({1e9, 1e9}, 11.0);
  EXPECT_EQ(r.events.size(), 10u);
  EXPECT_EQ(r.updates_per_device[0], 5u);
  EXPECT_EQ(r.updates_per_device[1], 5u);
  // Events are time-sorted and versions strictly increase.
  for (std::size_t i = 1; i < r.events.size(); ++i) {
    EXPECT_GE(r.events[i].time, r.events[i - 1].time);
    EXPECT_GT(r.events[i].applied_version,
              r.events[i - 1].applied_version);
  }
}

TEST(AsyncSim, StalenessReflectsConcurrentUpdates) {
  // Device 0 cycles every 2 s, device 1 every 8 s (4x slower compute).
  // While device 1 computes one cycle, device 0 lands ~4 updates, so
  // device 1's updates should carry staleness ~4; device 0's ~1.
  AsyncFlSimulator sim(
      {uniform_device(1e9, 1e9), uniform_device(7e9, 1e9)},
      {constant_trace(100.0, 50), constant_trace(100.0, 50)},
      tiny_params());
  auto r = sim.run({1e9, 1e9}, 100.0);
  double slow_staleness = 0.0;
  std::size_t slow_count = 0;
  double fast_staleness = 0.0;
  std::size_t fast_count = 0;
  for (const auto& e : r.events) {
    if (e.device == 1) {
      slow_staleness += static_cast<double>(e.staleness);
      ++slow_count;
    } else {
      fast_staleness += static_cast<double>(e.staleness);
      ++fast_count;
    }
  }
  ASSERT_GT(slow_count, 0u);
  ASSERT_GT(fast_count, 0u);
  EXPECT_GT(slow_staleness / slow_count, 2.0);
  EXPECT_LT(fast_staleness / fast_count, 2.0);
  EXPECT_GT(fast_count, 3 * slow_count);
}

TEST(AsyncSim, NoBarrierMeansMoreUpdatesThanSync) {
  // Same fleet through the synchronized simulator: sync pace is set by
  // the straggler, async lets the fast device run free.
  ExperimentConfig cfg = testbed_config();
  cfg.trace_samples = 600;
  auto sync = build_simulator(cfg);
  AsyncFlSimulator async_sim(sync.fleet_state(), sync.trace_table(),
                             sync.params());

  std::vector<double> freqs;
  for (std::size_t i = 0; i < sync.num_devices(); ++i)
    freqs.push_back(sync.fleet().max_freq_hz(i));

  const double horizon = 300.0;
  auto async_result = async_sim.run(freqs, horizon);

  FlSimulator sync_run = sync;
  sync_run.reset(0.0);
  std::size_t sync_updates = 0;
  while (sync_run.now() < horizon) {
    sync_run.step(freqs, {});
    sync_updates += sync_run.num_devices();
  }
  EXPECT_GT(async_result.events.size(), sync_updates);
}

TEST(AsyncSim, EnergyAccountedPerCompletedCycle) {
  AsyncFlSimulator sim({uniform_device(1e9, 1e9)},
                       {constant_trace(100.0, 50)}, tiny_params());
  auto r = sim.run({0.5e9}, 12.0);
  // compute 2 s + upload 1 s = 3 s per cycle -> 4 cycles in 12 s.
  ASSERT_EQ(r.events.size(), 4u);
  const double per_cycle = 1e-28 * 1e9 * 0.25e18 + 1.0;  // E_cmp + 1s upload
  EXPECT_NEAR(r.total_energy, 4.0 * per_cycle, 1e-9);
  for (const auto& e : r.events) {
    EXPECT_NEAR(e.compute_time, 2.0, 1e-9);
    EXPECT_NEAR(e.comm_time, 1.0, 1e-9);
  }
}

TEST(AsyncSim, HorizonCutsUnfinishedCycles) {
  AsyncFlSimulator sim({uniform_device(1e9, 1e9)},
                       {constant_trace(100.0, 50)}, tiny_params());
  auto r = sim.run({1e9}, 3.9);  // cycles finish at 2.0 and 4.0
  EXPECT_EQ(r.events.size(), 1u);
}

TEST(AsyncFedAvg, MixDecaysWithStaleness) {
  Rng rng(1);
  ModelSpec spec;
  spec.sizes = {3, 8, 2};
  auto data = make_gaussian_mixture(200, 3, 2, rng);
  std::vector<FlClient> clients;
  clients.emplace_back(data, spec, 1);
  AsyncAggregationConfig cfg;
  cfg.base_mix = 0.6;
  cfg.staleness_decay = 1.0;
  AsyncFedAvgServer server(std::move(clients), spec, cfg, 2);
  EXPECT_DOUBLE_EQ(server.mix_for(0), 0.6);
  EXPECT_DOUBLE_EQ(server.mix_for(1), 0.3);
  EXPECT_DOUBLE_EQ(server.mix_for(5), 0.1);
}

TEST(AsyncFedAvg, ApplyUpdateMovesGlobalAndBumpsVersion) {
  Rng rng(3);
  ModelSpec spec;
  spec.sizes = {3, 8, 2};
  auto data = make_gaussian_mixture(300, 3, 2, rng);
  auto shards = split_iid(data, 2, rng);
  std::vector<FlClient> clients;
  for (std::size_t i = 0; i < 2; ++i) {
    clients.emplace_back(std::move(shards[i]), spec, 10 + i);
  }
  AsyncFedAvgServer server(std::move(clients), spec,
                           AsyncAggregationConfig{}, 4);
  const auto before = server.global_params();
  auto snapshot = server.snapshot();
  LocalTrainConfig ltc;
  const double alpha = server.apply_update(0, snapshot, 0, ltc, 0);
  EXPECT_GT(alpha, 0.0);
  EXPECT_EQ(server.version(), 1u);
  EXPECT_NE(server.global_params()[0], before[0]);
}

TEST(AsyncFedAvg, EventDrivenTrainingConverges) {
  // Full coupling: replay async simulator events through the staleness-
  // weighted server; loss must fall substantially.
  Rng rng(5);
  ModelSpec spec;
  spec.sizes = {4, 12, 3};
  auto data = make_gaussian_mixture(600, 4, 3, rng, 3.0, 0.6);
  auto shards = split_dirichlet(data, 3, 1.0, rng);
  std::vector<FlClient> clients;
  for (std::size_t i = 0; i < 3; ++i) {
    clients.emplace_back(std::move(shards[i]), spec, 20 + i);
  }
  AsyncFedAvgServer server(std::move(clients), spec,
                           AsyncAggregationConfig{}, 6);

  ExperimentConfig cfg = testbed_config();
  cfg.trace_samples = 600;
  auto sync = build_simulator(cfg);
  AsyncFlSimulator sim(sync.fleet_state(), sync.trace_table(),
                       sync.params());
  std::vector<double> freqs;
  for (std::size_t i = 0; i < sim.num_devices(); ++i)
    freqs.push_back(sim.fleet().max_freq_hz(i));
  auto run = sim.run(freqs, 250.0);
  ASSERT_GT(run.events.size(), 10u);

  const double initial = server.global_loss();
  // Per-device pulled snapshots, refreshed after each of their arrivals.
  std::vector<std::vector<Matrix>> pulled(3, server.snapshot());
  LocalTrainConfig ltc;
  ltc.learning_rate = 0.08;
  std::size_t round = 0;
  for (const auto& e : run.events) {
    server.apply_update(e.device, pulled[e.device], e.staleness, ltc,
                        round++);
    pulled[e.device] = server.snapshot();
  }
  EXPECT_LT(server.global_loss(), 0.6 * initial);
  EXPECT_GT(server.global_accuracy(), 0.6);
}

TEST(AsyncFedAvg, GlobalAccuracyIsPinned) {
  // Bitwise pin of the evaluation pass after two staleness-weighted rounds.
  Rng rng(61);
  ModelSpec spec;
  spec.sizes = {4, 12, 3};
  auto data = make_gaussian_mixture(240, 4, 3, rng, 3.0, 0.6);
  auto shards = split_iid(data, 2, rng);
  std::vector<FlClient> clients;
  for (std::size_t i = 0; i < 2; ++i) {
    clients.emplace_back(std::move(shards[i]), spec, 62 + i);
  }
  AsyncFedAvgServer server(std::move(clients), spec,
                           AsyncAggregationConfig{}, 64);
  const auto pulled = server.snapshot();
  LocalTrainConfig ltc;
  server.apply_update(0, pulled, 0, ltc, 0);
  server.apply_update(1, pulled, 1, ltc, 1);
  const double acc = server.global_accuracy();
  std::ostringstream os;
  os << std::hexfloat << acc;
  EXPECT_EQ(acc, 0x1.1dddddddddddep-1) << "actual " << os.str();
}

TEST(AsyncDeathTest, BadInputsAbort) {
  EXPECT_DEATH(
      AsyncFlSimulator(FleetState{}, TraceTable{}, tiny_params()),
      "precondition");
  AsyncFlSimulator sim({uniform_device(1e9, 1e9)},
                       {constant_trace(100.0, 50)}, tiny_params());
  EXPECT_DEATH(sim.run({1e9, 1e9}, 10.0), "precondition");
  EXPECT_DEATH(sim.run({1e9}, 0.0), "precondition");
}

}  // namespace
}  // namespace fedra
