#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "sim/experiment_config.hpp"
#include "trace/generator.hpp"
#include "util/rng.hpp"

namespace fedra {
namespace {

DeviceProfile simple_device(double cycles = 1e9, double max_freq = 1e9,
                            double alpha = 1e-28, double tx_power = 1.0) {
  DeviceProfile d;
  d.cycles_per_bit = 1.0;
  d.dataset_bits = cycles;  // c * D = cycles
  d.capacitance = alpha;
  d.max_freq_hz = max_freq;
  d.tx_power_w = tx_power;
  return d;
}

CostParams simple_params(double lambda = 0.1, double model_bytes = 100.0) {
  CostParams p;
  p.lambda = lambda;
  p.tau = 1.0;
  p.model_bytes = model_bytes;
  return p;
}

TEST(Simulator, HandComputedIterationOnConstantTrace) {
  // One device: 1e9 cycles, run at 0.5e9 Hz -> t_cmp = 2 s.
  // Upload 100 bytes at 50 B/s -> t_com = 2 s. T = 4 s.
  // E_cmp = 1e-28 * 1e9 * (0.5e9)^2 = 0.025 J; E_com = 1 W * 2 s = 2 J.
  // cost = 4 + 0.1 * 2.025 = 4.2025.
  FlSimulator sim({simple_device()}, {constant_trace(50.0, 100)},
                  simple_params());
  auto r = sim.step({0.5e9}, {});
  ASSERT_EQ(r.devices.size(), 1u);
  EXPECT_NEAR(r.devices[0].compute_time, 2.0, 1e-12);
  EXPECT_NEAR(r.devices[0].comm_time, 2.0, 1e-12);
  EXPECT_NEAR(r.devices[0].total_time, 4.0, 1e-12);
  EXPECT_NEAR(r.iteration_time, 4.0, 1e-12);
  EXPECT_NEAR(r.devices[0].compute_energy, 0.025, 1e-12);
  EXPECT_NEAR(r.devices[0].comm_energy, 2.0, 1e-12);
  EXPECT_NEAR(r.total_energy, 2.025, 1e-12);
  EXPECT_NEAR(r.cost, 4.2025, 1e-12);
  EXPECT_NEAR(r.reward, -4.2025, 1e-12);
  EXPECT_NEAR(r.devices[0].avg_bandwidth, 50.0, 1e-9);
}

TEST(Simulator, MakespanIsSlowestDevice) {
  // Eq. (5): T^k = max_i T_i.
  FlSimulator sim({simple_device(1e9), simple_device(4e9)},
                  {constant_trace(100.0, 100), constant_trace(100.0, 100)},
                  simple_params());
  auto r = sim.step({1e9, 1e9}, {});
  // Device 0: 1 + 1 = 2 s; device 1: 4 + 1 = 5 s.
  EXPECT_NEAR(r.iteration_time, 5.0, 1e-12);
  EXPECT_NEAR(r.devices[0].idle_time, 3.0, 1e-12);
  EXPECT_NEAR(r.devices[1].idle_time, 0.0, 1e-12);
}

TEST(Simulator, ClockAdvancesByIterationTime) {
  // Constraint (11): t^{k+1} = t^k + T^k.
  FlSimulator sim({simple_device()}, {constant_trace(50.0, 100)},
                  simple_params(), 10.0);
  EXPECT_DOUBLE_EQ(sim.now(), 10.0);
  auto r = sim.step({1e9}, {});
  EXPECT_DOUBLE_EQ(sim.now(), 10.0 + r.iteration_time);
  EXPECT_EQ(sim.iteration(), 1u);
}

TEST(Simulator, FrequencyClampedToCap) {
  FlSimulator sim({simple_device(1e9, 1e9)}, {constant_trace(100.0, 100)},
                  simple_params());
  auto r = sim.step({5e9}, {});  // above cap
  EXPECT_DOUBLE_EQ(r.devices[0].freq_hz, 1e9);
}

TEST(Simulator, FrequencyLiftedToFloor) {
  FlSimulator sim({simple_device(1e9, 1e9)}, {constant_trace(100.0, 100)},
                  simple_params());
  auto r = sim.step({0.0}, {});  // device cannot opt out
  EXPECT_DOUBLE_EQ(r.devices[0].freq_hz,
                   FlSimulator::kMinFreqFraction * 1e9);
}

TEST(Simulator, UploadStartsAfterCompute) {
  // Trace: 10 B/s for 5 s, then 1000 B/s. A device finishing compute at
  // t=5 uploads fast; finishing at t=0 wades through the slow phase.
  std::vector<double> samples(5, 10.0);
  samples.insert(samples.end(), 5, 1000.0);
  BandwidthTrace trace(samples, 1.0);
  auto fast_compute = simple_device(1e9, 1e9);
  FlSimulator sim({fast_compute}, {trace}, simple_params(0.1, 500.0));

  // At full speed: compute ends at 1 s; upload needs 40 B in slow phase
  // (4 s) + 460 B fast -> finishes a bit after 5 s.
  auto r1 = sim.preview({1e9}, StepOptions::dry_run(0.0));
  // At 0.2x: compute ends at 5 s; 500 B at 1000 B/s -> 0.5 s.
  auto r2 = sim.preview({0.2e9}, StepOptions::dry_run(0.0));
  EXPECT_GT(r1.devices[0].comm_time, r2.devices[0].comm_time);
  // Slowing down 5x cost almost no wall-clock time (the fast device was
  // stuck behind the slow network phase anyway)...
  EXPECT_LT(r2.iteration_time, r1.iteration_time * 1.05);
  // ...but saves a huge amount of computation energy — the idle-time
  // trade the DRL agent learns to exploit (paper Section II, Fig. 3).
  EXPECT_LT(r2.devices[0].compute_energy,
            0.1 * r1.devices[0].compute_energy);
}

TEST(Simulator, PreviewDoesNotAdvance) {
  FlSimulator sim({simple_device()}, {constant_trace(50.0, 100)},
                  simple_params());
  const double before = sim.now();
  (void)sim.preview({1e9}, StepOptions::dry_run(100.0));
  EXPECT_DOUBLE_EQ(sim.now(), before);
  EXPECT_EQ(sim.iteration(), 0u);
}

TEST(Simulator, ResetRewindsClock) {
  FlSimulator sim({simple_device()}, {constant_trace(50.0, 100)},
                  simple_params());
  sim.step({1e9}, {});
  sim.reset(3.0);
  EXPECT_DOUBLE_EQ(sim.now(), 3.0);
  EXPECT_EQ(sim.iteration(), 0u);
}

TEST(Simulator, CostDecomposition) {
  FlSimulator sim({simple_device(), simple_device(2e9)},
                  {constant_trace(50.0, 100), constant_trace(25.0, 100)},
                  simple_params(0.25));
  auto r = sim.step({1e9, 2e9}, {});
  EXPECT_NEAR(r.cost, r.iteration_time + 0.25 * r.total_energy, 1e-12);
  double e = 0.0, ec = 0.0;
  for (const auto& d : r.devices) {
    e += d.energy;
    ec += d.compute_energy;
    EXPECT_NEAR(d.energy, d.compute_energy + d.comm_energy, 1e-12);
  }
  EXPECT_NEAR(r.total_energy, e, 1e-12);
  EXPECT_NEAR(r.total_compute_energy, ec, 1e-12);
}

TEST(Simulator, HigherFrequencyNeverSlowerOnConstantTrace) {
  FlSimulator sim({simple_device()}, {constant_trace(50.0, 100)},
                  simple_params());
  double prev_time = 1e18;
  double prev_energy = 0.0;
  for (double f = 0.1e9; f <= 1.0e9; f += 0.1e9) {
    auto r = sim.preview({f}, StepOptions::dry_run(0.0));
    EXPECT_LE(r.iteration_time, prev_time);
    EXPECT_GE(r.devices[0].compute_energy, prev_energy);
    prev_time = r.iteration_time;
    prev_energy = r.devices[0].compute_energy;
  }
}

TEST(Simulator, RealisticTraceIterationSequence) {
  Rng rng(3);
  auto traces = generate_trace_set("lte_walking", 3, 1000, rng);
  FleetModel fm;
  Rng fleet_rng(4);
  auto fleet = make_fleet(3, fm, fleet_rng);
  CostParams params;
  params.model_bytes = 15e6;
  FlSimulator sim(fleet, traces, params);
  double t_prev = sim.now();
  for (int k = 0; k < 20; ++k) {
    std::vector<double> freqs;
    for (std::size_t i = 0; i < sim.num_devices(); ++i)
      freqs.push_back(sim.fleet().max_freq_hz(i));
    auto r = sim.step(freqs, {});
    EXPECT_GT(r.iteration_time, 0.0);
    EXPECT_GT(r.cost, 0.0);
    EXPECT_TRUE(std::isfinite(r.cost));
    EXPECT_DOUBLE_EQ(r.start_time, t_prev);
    t_prev += r.iteration_time;
  }
}

TEST(SimulatorDeathTest, MismatchedInputsAbort) {
  EXPECT_DEATH(FlSimulator({simple_device()}, {}, simple_params()),
               "precondition");
  FlSimulator sim({simple_device()}, {constant_trace(50.0, 10)},
                  simple_params());
  EXPECT_DEATH(sim.step({1e9, 1e9}, {}), "precondition");
}

FlSimulator make_sim(std::size_t devices, std::uint64_t seed) {
  ExperimentConfig cfg = testbed_config();
  cfg.num_devices = devices;
  cfg.trace_pool = 0;
  cfg.trace_samples = 400;
  cfg.seed = seed;
  return build_simulator(cfg);
}

TEST(SimulatorParticipation, ExcludedDevicesCostNothing) {
  auto sim = make_sim(3, 7);
  std::vector<double> freqs;
  for (std::size_t i = 0; i < sim.num_devices(); ++i)
    freqs.push_back(sim.fleet().max_freq_hz(i));
  const std::vector<bool> mask{true, false, true};
  auto r = sim.step(freqs, StepOptions::with_participants(mask));
  EXPECT_FALSE(r.devices[1].participated);
  EXPECT_DOUBLE_EQ(r.devices[1].energy, 0.0);
  EXPECT_DOUBLE_EQ(r.devices[1].total_time, 0.0);
  EXPECT_DOUBLE_EQ(r.devices[1].idle_time, 0.0);
  EXPECT_TRUE(r.devices[0].participated);
  EXPECT_GT(r.devices[0].energy, 0.0);
}

TEST(SimulatorParticipation, DroppingStragglerShrinksMakespan) {
  auto sim = make_sim(3, 11);
  std::vector<double> freqs;
  for (std::size_t i = 0; i < sim.num_devices(); ++i)
    freqs.push_back(sim.fleet().max_freq_hz(i));
  auto full = sim.preview(freqs, StepOptions::dry_run(0.0));
  // Identify the straggler and rerun without it.
  std::size_t straggler = 0;
  for (std::size_t i = 1; i < 3; ++i) {
    if (full.devices[i].total_time >
        full.devices[straggler].total_time) {
      straggler = i;
    }
  }
  std::vector<bool> mask(3, true);
  mask[straggler] = false;
  FlSimulator sim2 = sim;
  auto partial = sim2.step(freqs, StepOptions::with_participants(mask));
  EXPECT_LT(partial.iteration_time, full.iteration_time);
  EXPECT_LT(partial.total_energy, full.total_energy);
}

TEST(SimulatorParticipationDeathTest, EmptyRoundAborts) {
  auto sim = make_sim(2, 3);
  std::vector<double> freqs{1e9, 1e9};
  const std::vector<bool> nobody{false, false};
  const std::vector<bool> short_mask{true};
  EXPECT_DEATH(sim.step(freqs, StepOptions::with_participants(nobody)),
               "precondition");
  EXPECT_DEATH(sim.step(freqs, StepOptions::with_participants(short_mask)),
               "precondition");
}

}  // namespace
}  // namespace fedra
