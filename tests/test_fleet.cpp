// Property tests for the fleet-scale round engine: the vectorized,
// sharded pricing path must be BIT-IDENTICAL to a scalar per-device
// oracle at every fleet size, pool size, and outcome layout. EXPECT_EQ
// on doubles is deliberate throughout — the contract is exact, not
// approximate.
#include "sim/fleet_state.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "fault/fault_model.hpp"
#include "sim/cohort.hpp"
#include "sim/experiment_config.hpp"
#include "sim/fleet_pricing.hpp"
#include "sim/simulator.hpp"
#include "trace/generator.hpp"
#include "trace/trace_table.hpp"
#include "util/thread_pool.hpp"

namespace fedra {
namespace {

using fault::DeviceFault;
using fault::FaultConfig;
using fault::FaultModel;
using fault::RoundFaults;

CostParams fleet_params() {
  CostParams p;
  p.lambda = 0.1;
  p.tau = 1.0;
  p.model_bytes = 1e5;
  return p;
}

/// Shared pool of 4 equal-length sinusoid traces (uniform sample counts
/// exercise the lockstep batched upload solver).
TraceTable make_traces(std::size_t n) {
  std::vector<BandwidthTrace> pool;
  for (std::size_t p = 0; p < 4; ++p) {
    std::vector<double> samples(400);
    for (std::size_t j = 0; j < samples.size(); ++j) {
      samples[j] = 5e4 + 2e4 * std::sin(0.1 * static_cast<double>(j) +
                                        static_cast<double>(p));
    }
    pool.emplace_back(std::move(samples), 1.0);
  }
  std::vector<std::uint32_t> assignment(n);
  for (std::size_t i = 0; i < n; ++i) {
    assignment[i] = static_cast<std::uint32_t>(i % pool.size());
  }
  return TraceTable(std::move(pool), std::move(assignment));
}

/// Deterministic frequency request mix: in-range, below-floor (negative),
/// and above-cap lanes all show up.
std::vector<double> make_freqs(const FleetState& fleet) {
  std::vector<double> freqs(fleet.size());
  for (std::size_t i = 0; i < freqs.size(); ++i) {
    if (i % 13 == 0) {
      freqs[i] = -1.0;  // clamps to the floor
    } else if (i % 11 == 0) {
      freqs[i] = 1e12;  // clamps to the cap
    } else {
      freqs[i] = 0.3e9 + static_cast<double>(i % 7) * 0.2e9;
    }
  }
  return freqs;
}

/// Scalar oracle for one fault-free round: per-device math through the
/// *_reference kernels (the declared scalar oracle) and scalar trace
/// solves, totals accumulated in the engine's fixed kPricingBlock
/// structure (block partials in device order, combined in block order) so
/// multi-block fleets compare bitwise too. With a `mask`, devices outside
/// it sit the round out: participated = completed = false, every other
/// field zero.
IterationResult oracle_round(const FleetState& fleet, const TraceTable& traces,
                             const CostParams& params,
                             const std::vector<double>& freqs, double start,
                             const std::vector<bool>* mask = nullptr) {
  const std::size_t n = fleet.size();
  constexpr std::size_t kBlock = FlSimulator::kPricingBlock;
  IterationResult r;
  r.start_time = start;
  r.devices.resize(n);

  const std::size_t nblocks = (n + kBlock - 1) / kBlock;
  double makespan = 0.0;
  for (std::size_t b = 0; b < nblocks; ++b) {
    const std::size_t begin = b * kBlock;
    const std::size_t end = std::min(n, begin + kBlock);
    const std::size_t bn = end - begin;
    std::vector<double> freq(bn);
    std::vector<double> tcmp(bn);
    std::vector<double> ecmp(bn);
    fleet::price_compute_reference(
        bn, params.tau, FlSimulator::kMinFreqFraction,
        fleet.cycles_per_bit().data() + begin,
        fleet.dataset_bits().data() + begin, fleet.capacitance().data() + begin,
        fleet.max_freq_hz().data() + begin, freqs.data() + begin, freq.data(),
        tcmp.data(), ecmp.data());
    double block_energy = 0.0;
    double block_compute_energy = 0.0;
    double block_makespan = 0.0;
    for (std::size_t k = 0; k < bn; ++k) {
      const std::size_t i = begin + k;
      DeviceOutcome& out = r.devices[i];
      if (mask != nullptr && !(*mask)[i]) {
        out.participated = false;
        out.completed = false;
        continue;
      }
      ++r.num_scheduled;
      ++r.num_completed;
      out.freq_hz = freq[k];
      out.compute_time = tcmp[k];
      const double upload_start = start + tcmp[k];
      const double upload_end =
          traces[i].upload_finish_time(upload_start, params.model_bytes);
      out.comm_time = upload_end - upload_start;
      out.total_time = out.compute_time + out.comm_time;
      out.avg_bandwidth = out.comm_time > 0.0
                              ? params.model_bytes / out.comm_time
                              : traces[i].bandwidth_at(upload_start);
      out.compute_energy = ecmp[k];
      out.comm_energy = fleet.tx_power_w()[i] * out.comm_time;
      out.energy = out.compute_energy + out.comm_energy;
      out.completed = true;
      block_energy += out.energy;
      block_compute_energy += out.compute_energy;
      block_makespan = std::max(block_makespan, out.total_time);
    }
    r.total_energy += block_energy;
    r.total_compute_energy += block_compute_energy;
    makespan = std::max(makespan, block_makespan);
  }
  r.iteration_time = makespan;
  for (auto& out : r.devices) {
    if (out.participated) out.idle_time = makespan - out.total_time;
  }
  r.cost = iteration_cost(makespan, r.total_energy, params);
  r.reward = iteration_reward(makespan, r.total_energy, params);
  return r;
}

void expect_outcome_eq(const DeviceOutcome& a, const DeviceOutcome& b) {
  EXPECT_EQ(a.participated, b.participated);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.failure, b.failure);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.freq_hz, b.freq_hz);
  EXPECT_EQ(a.compute_time, b.compute_time);
  EXPECT_EQ(a.comm_time, b.comm_time);
  EXPECT_EQ(a.total_time, b.total_time);
  EXPECT_EQ(a.idle_time, b.idle_time);
  EXPECT_EQ(a.compute_energy, b.compute_energy);
  EXPECT_EQ(a.comm_energy, b.comm_energy);
  EXPECT_EQ(a.energy, b.energy);
  EXPECT_EQ(a.avg_bandwidth, b.avg_bandwidth);
}

void expect_result_eq(const IterationResult& a, const IterationResult& b) {
  EXPECT_EQ(a.start_time, b.start_time);
  EXPECT_EQ(a.iteration_time, b.iteration_time);
  EXPECT_EQ(a.total_energy, b.total_energy);
  EXPECT_EQ(a.total_compute_energy, b.total_compute_energy);
  EXPECT_EQ(a.cost, b.cost);
  EXPECT_EQ(a.reward, b.reward);
  EXPECT_EQ(a.num_scheduled, b.num_scheduled);
  EXPECT_EQ(a.num_completed, b.num_completed);
  EXPECT_EQ(a.num_crashes, b.num_crashes);
  EXPECT_EQ(a.num_dropouts, b.num_dropouts);
  EXPECT_EQ(a.num_timeouts, b.num_timeouts);
  EXPECT_EQ(a.num_upload_failures, b.num_upload_failures);
  EXPECT_EQ(a.total_retries, b.total_retries);
  ASSERT_EQ(a.devices.size(), b.devices.size());
  for (std::size_t i = 0; i < a.devices.size(); ++i) {
    expect_outcome_eq(a.devices[i], b.devices[i]);
  }
}

// ---------------------------------------------------------------------------
// Tentpole: engine == scalar oracle bitwise, across fleet and pool sizes.
// ---------------------------------------------------------------------------

class FleetVsOracle : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FleetVsOracle, EngineMatchesScalarOracleAtEveryPoolSize) {
  const std::size_t n = GetParam();
  const FleetState fleet = make_fleet_state(n, FleetModel{}, 1234);
  const TraceTable traces = make_traces(n);
  const CostParams params = fleet_params();
  const auto freqs = make_freqs(fleet);

  const IterationResult expected =
      oracle_round(fleet, traces, params, freqs, 0.0);

  for (std::size_t workers : {1u, 2u, 8u}) {
    ThreadPool pool(workers);
    FlSimulator sim(fleet, traces, params);
    StepOptions opts;
    opts.outcomes = OutcomeLayout::kRows;
    opts.pool = &pool;
    const IterationResult got = sim.step(freqs, opts);
    expect_result_eq(got, expected);
  }
}

// A 10% cohort against the masked oracle: members priced bit for bit,
// non-members back with participated = completed = false and every
// time/energy field (idle_time included) zero.
TEST_P(FleetVsOracle, CohortMatchesMaskedScalarOracle) {
  const std::size_t n = GetParam();
  const FleetState fleet = make_fleet_state(n, FleetModel{}, 1234);
  const TraceTable traces = make_traces(n);
  const CostParams params = fleet_params();
  const auto freqs = make_freqs(fleet);
  const std::vector<bool> mask =
      sample_cohort(n, std::max<std::size_t>(1, n / 10), 5, 1).mask(n);

  const IterationResult expected =
      oracle_round(fleet, traces, params, freqs, 0.0, &mask);
  const DeviceOutcome sat_out{.participated = false, .completed = false};
  for (std::size_t i = 0; i < n; ++i) {
    if (!mask[i]) expect_outcome_eq(expected.devices[i], sat_out);
  }

  for (std::size_t workers : {1u, 2u, 8u}) {
    SCOPED_TRACE(::testing::Message() << "pool " << workers);
    ThreadPool pool(workers);
    FlSimulator sim(fleet, traces, params);
    StepOptions opts;
    opts.pool = &pool;
    opts.participating = &mask;
    expect_result_eq(sim.step(freqs, opts), expected);
  }
}

// 65537 = 16 full blocks + 1 straggler device crosses multiple
// 4096-device block boundaries.
INSTANTIATE_TEST_SUITE_P(FleetSizes, FleetVsOracle,
                         ::testing::Values(3u, 50u, 1000u, 65537u));

TEST(FleetEngine, PoolSizeInvariantUnderFaultsAndDeadline) {
  const std::size_t n = 5000;  // two pricing blocks
  const FleetState fleet = make_fleet_state(n, FleetModel{}, 7);
  const TraceTable traces = make_traces(n);
  const auto freqs = make_freqs(fleet);

  FaultConfig fcfg;
  fcfg.dropout_prob = 0.05;
  fcfg.straggler_prob = 0.1;
  fcfg.crash_prob = 0.03;
  fcfg.upload_failure_prob = 0.1;
  fcfg.max_retries = 2;

  std::vector<IterationResult> per_pool;
  for (std::size_t workers : {1u, 2u, 8u}) {
    ThreadPool pool(workers);
    FlSimulator sim(fleet, traces, fleet_params());
    FaultModel fm(fcfg, 99);
    StepOptions opts;
    opts.pool = &pool;
    opts.deadline = 12.0;
    opts.fault_model = &fm;
    IterationResult last;
    for (int k = 0; k < 3; ++k) last = sim.step(freqs, opts);
    per_pool.push_back(std::move(last));
  }
  expect_result_eq(per_pool[0], per_pool[1]);
  expect_result_eq(per_pool[0], per_pool[2]);
}

TEST(FleetEngine, LayoutsAgreeBitwise) {
  const std::size_t n = 300;
  const FleetState fleet = make_fleet_state(n, FleetModel{}, 55);
  const TraceTable traces = make_traces(n);
  const auto freqs = make_freqs(fleet);

  IterationResult results[2];
  const OutcomeLayout layouts[2] = {OutcomeLayout::kRows,
                                    OutcomeLayout::kSummary};
  for (int v = 0; v < 2; ++v) {
    FlSimulator sim(fleet, traces, fleet_params());
    StepOptions opts;
    opts.outcomes = layouts[v];
    results[v] = sim.step(freqs, opts);
  }
  // Rows: one outcome per device. Summary: none, identical aggregates.
  EXPECT_EQ(results[0].devices.size(), n);
  EXPECT_TRUE(results[1].devices.empty());
  IterationResult rows_only = results[0];
  rows_only.devices.clear();
  expect_result_eq(results[1], rows_only);
}

TEST(FleetEngine, LegacyAndFleetConstructionAgree) {
  // The legacy AoS ctor and the SoA ctor over the same data are the same
  // simulator bit for bit.
  const FleetState fleet = make_fleet_state(50, FleetModel{}, 11);
  const TraceTable traces = make_traces(50);
  const auto freqs = make_freqs(fleet);

  FlSimulator legacy(fleet.to_profiles(), traces.materialize(),
                     fleet_params());
  FlSimulator soa(fleet, traces, fleet_params());
  for (int k = 0; k < 3; ++k) {
    expect_result_eq(legacy.step(freqs, {}), soa.step(freqs, {}));
  }
}

// ---------------------------------------------------------------------------
// Kernel padding discipline: lanes beyond n are never read or written,
// even when poisoned with NaN / +-inf.
// ---------------------------------------------------------------------------

TEST(FleetKernels, PoisonedPaddingLanesAreNeverTouched) {
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kSentinel = 12345.0;
  const double poison[3] = {kNan, kInf, -kInf};

  for (std::size_t n : {1u, 7u, 13u, 64u, 333u}) {
    for (int p = 0; p < 3; ++p) {
      const std::size_t cap = n + 16;
      auto poisoned = [&](double fill) {
        std::vector<double> v(cap, poison[p]);
        for (std::size_t i = 0; i < n; ++i) v[i] = fill;
        return v;
      };
      std::vector<double> cycles = poisoned(1.0);
      std::vector<double> bits = poisoned(2e9);
      std::vector<double> capa = poisoned(1e-28);
      std::vector<double> maxf = poisoned(2e9);
      std::vector<double> txp = poisoned(1.0);
      std::vector<double> req = poisoned(1.1e9);
      std::vector<double> est = poisoned(0.5);

      std::vector<double> freq(cap, kSentinel), tcmp(cap, kSentinel),
          ecmp(cap, kSentinel);
      std::vector<double> rfreq(cap, kSentinel), rtcmp(cap, kSentinel),
          recmp(cap, kSentinel);
      fleet::price_compute(n, 1.0, 0.01, cycles.data(), bits.data(),
                           capa.data(), maxf.data(), req.data(), freq.data(),
                           tcmp.data(), ecmp.data());
      fleet::price_compute_reference(n, 1.0, 0.01, cycles.data(), bits.data(),
                                     capa.data(), maxf.data(), req.data(),
                                     rfreq.data(), rtcmp.data(), recmp.data());
      std::vector<double> dl(cap, kSentinel);
      fleet::deadline_freqs(n, 1.0, 0.01, 3.0, cycles.data(), bits.data(),
                            maxf.data(), est.data(), dl.data());
      std::vector<double> time(cap, kSentinel), energy(cap, kSentinel);
      fleet::predicted_terms(n, 1.0, cycles.data(), bits.data(), capa.data(),
                             txp.data(), est.data(), req.data(), time.data(),
                             energy.data());

      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(freq[i], rfreq[i]);
        EXPECT_EQ(tcmp[i], rtcmp[i]);
        EXPECT_EQ(ecmp[i], recmp[i]);
        EXPECT_TRUE(std::isfinite(freq[i]));
      }
      for (std::size_t i = n; i < cap; ++i) {
        EXPECT_EQ(freq[i], kSentinel);
        EXPECT_EQ(tcmp[i], kSentinel);
        EXPECT_EQ(ecmp[i], kSentinel);
        EXPECT_EQ(dl[i], kSentinel);
        EXPECT_EQ(time[i], kSentinel);
        EXPECT_EQ(energy[i], kSentinel);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Batched trace solves == scalar solves.
// ---------------------------------------------------------------------------

TEST(TraceTableBatch, UploadFinishTimesMatchScalar) {
  const std::size_t n = 100;
  const TraceTable uniform = make_traces(n);

  // Non-uniform pool (different sample counts) forces the scalar
  // fallback; both paths must match the per-device scalar calls.
  std::vector<BandwidthTrace> ragged_pool;
  ragged_pool.push_back(constant_trace(4e4, 200));
  ragged_pool.push_back(constant_trace(6e4, 350));
  std::vector<std::uint32_t> assignment(n);
  for (std::size_t i = 0; i < n; ++i) {
    assignment[i] = static_cast<std::uint32_t>(i % 2);
  }
  const TraceTable ragged(std::move(ragged_pool), std::move(assignment));

  for (const TraceTable* table : {&uniform, &ragged}) {
    std::vector<std::size_t> devices;
    std::vector<double> starts;
    for (std::size_t i = 0; i < n; i += 3) {
      devices.push_back(i);
      starts.push_back(0.37 * static_cast<double>(i));
    }
    std::vector<double> batched(devices.size());
    table->upload_finish_times(devices.data(), devices.size(), starts.data(),
                               1e5, batched.data());
    for (std::size_t k = 0; k < devices.size(); ++k) {
      EXPECT_EQ(batched[k],
                (*table)[devices[k]].upload_finish_time(starts[k], 1e5));
    }
  }
}

// ---------------------------------------------------------------------------
// Fault-model range draws == the full sequential draw.
// ---------------------------------------------------------------------------

void expect_fault_eq(const DeviceFault& a, const DeviceFault& b) {
  EXPECT_EQ(a.crashed, b.crashed);
  EXPECT_EQ(a.dropout, b.dropout);
  EXPECT_EQ(a.dropout_frac, b.dropout_frac);
  EXPECT_EQ(a.compute_slowdown, b.compute_slowdown);
  EXPECT_EQ(a.upload_slowdown, b.upload_slowdown);
  EXPECT_EQ(a.blackout_offset, b.blackout_offset);
  EXPECT_EQ(a.blackout_duration, b.blackout_duration);
  EXPECT_EQ(a.failed_uploads, b.failed_uploads);
  EXPECT_EQ(a.upload_exhausted, b.upload_exhausted);
}

TEST(FaultModelBatch, RangeDrawsMatchSequentialDraw) {
  FaultConfig cfg;
  cfg.dropout_prob = 0.15;
  cfg.straggler_prob = 0.3;
  cfg.crash_prob = 0.1;
  cfg.blackout_prob = 0.2;
  cfg.upload_failure_prob = 0.25;
  cfg.max_retries = 2;
  const FaultModel model(cfg, 42);
  const std::size_t n = 100;
  const std::vector<bool> healthy;  // indices past size() = healthy

  RoundFaults full;
  full.devices.resize(n);
  std::vector<bool> full_crash(n);
  model.draw_range(5, 0, n, healthy, &full, &full_crash);

  // Same draw in out-of-order shards: bitwise identical assignment and
  // evolved crash state.
  RoundFaults sharded;
  sharded.devices.resize(n);
  std::vector<bool> shard_crash(n);
  const std::size_t cuts[4] = {64, 100, 0, 17};  // [64,100), [0,17), [17,64)
  model.draw_range(5, cuts[0], cuts[1], healthy, &sharded, &shard_crash);
  model.draw_range(5, cuts[2], cuts[3], healthy, &sharded, &shard_crash);
  model.draw_range(5, 17, 64, healthy, &sharded, &shard_crash);

  for (std::size_t i = 0; i < n; ++i) {
    expect_fault_eq(full.devices[i], sharded.devices[i]);
    EXPECT_EQ(full_crash[i], shard_crash[i]);
  }

  // And the public peek() (whole-round draw) agrees with draw_range.
  const RoundFaults peeked = model.peek(5, n);
  ASSERT_EQ(peeked.devices.size(), n);
  for (std::size_t i = 0; i < n; ++i) {
    expect_fault_eq(peeked.devices[i], full.devices[i]);
  }
}

// ---------------------------------------------------------------------------
// Faults drawn inside the pricing blocks == the materialized assignment.
// ---------------------------------------------------------------------------

FaultConfig churn_config() {
  FaultConfig cfg;
  cfg.dropout_prob = 0.05;
  cfg.straggler_prob = 0.15;
  cfg.crash_prob = 0.1;
  cfg.rejoin_prob = 0.5;  // several rejoins within five rounds
  cfg.blackout_prob = 0.02;
  cfg.upload_failure_prob = 0.1;
  cfg.max_retries = 2;
  return cfg;
}

/// Five steps of a model-driven simulator against a twin fed the same
/// rounds as explicit assignments from a twin model's advance(): results
/// bitwise equal, crash chains equal after every step, and a preview in
/// between touches neither the chain nor the outcome of the next step.
void expect_block_draws_match_assignment(bool cohort) {
  constexpr std::size_t kBlock = SimulatorBase::kPricingBlock;
  const std::size_t n = 3 * kBlock + 17;
  const FleetState fleet = make_fleet_state(n, FleetModel{}, 21);
  const TraceTable traces = make_traces(n);
  const auto freqs = make_freqs(fleet);

  for (std::size_t workers : {1u, 2u, 8u}) {
    SCOPED_TRACE(::testing::Message() << "pool " << workers << " cohort "
                                      << cohort);
    ThreadPool pool(workers);
    FlSimulator drawn(fleet, traces, fleet_params());
    FlSimulator given(fleet, traces, fleet_params());
    FaultModel model(churn_config(), 314);
    FaultModel twin(churn_config(), 314);
    std::size_t rejoins = 0;
    for (std::size_t k = 0; k < 5; ++k) {
      const std::vector<bool> mask = sample_cohort(n, n / 10, 9, k).mask(n);
      StepOptions opts;
      opts.pool = &pool;
      opts.deadline = 40.0;
      if (cohort) opts.participating = &mask;

      StepOptions by_model = opts;
      by_model.fault_model = &model;
      const std::vector<bool> chain_before = model.crash_state();
      const IterationResult previewed = drawn.preview(freqs, by_model);
      EXPECT_EQ(model.crash_state(), chain_before);
      const RoundFaults peeked = model.peek(k, n);
      StepOptions by_peek = opts;
      by_peek.faults = &peeked;
      expect_result_eq(previewed, given.preview(freqs, by_peek));

      const std::vector<bool> was = twin.crash_state();
      const RoundFaults assignment = twin.advance(k, n);
      StepOptions by_assignment = opts;
      by_assignment.faults = &assignment;
      const IterationResult expected = given.step(freqs, by_assignment);
      expect_result_eq(drawn.step(freqs, by_model), expected);
      expect_result_eq(previewed, expected);
      EXPECT_EQ(model.crash_state(), twin.crash_state());
      for (std::size_t i = 0; i < was.size(); ++i) {
        if (was[i] && !twin.crash_state()[i]) ++rejoins;
      }
    }
    EXPECT_GT(rejoins, 0u);
  }
}

TEST(FleetFaults, BlockDrawsMatchAssignmentFullFleet) {
  expect_block_draws_match_assignment(false);
}

TEST(FleetFaults, BlockDrawsMatchAssignmentCohort) {
  expect_block_draws_match_assignment(true);
}

TEST(FaultModelBatch, NonParticipantsOnlyStepTheCrashChain) {
  const FaultModel model(churn_config(), 8);
  const std::size_t n = 200;
  std::vector<bool> mask(n);
  for (std::size_t i = 0; i < n; i += 3) mask[i] = true;
  // Half the fleet starts down, so both the crash_prob and the
  // rejoin_prob step of the chain are compared, in and out of the mask.
  std::vector<bool> was(n);
  for (std::size_t i = 0; i < n; i += 2) was[i] = true;

  RoundFaults full;
  full.devices.resize(n);
  std::vector<bool> full_chain(n);
  model.draw_range(4, 0, n, was, &full, &full_chain);
  std::size_t rejoins = 0;
  std::size_t crashes = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (was[i] && !full_chain[i]) ++rejoins;
    if (!was[i] && full_chain[i]) ++crashes;
  }
  EXPECT_GT(rejoins, 0u);
  EXPECT_GT(crashes, 0u);

  // In place, as the simulator steps its chain.
  const DeviceFault untouched{.dropout_frac = -1.0};
  std::vector<DeviceFault> block(n, untouched);
  std::vector<bool> chain = was;
  model.draw_block(4, 0, n, chain, &mask, block.data(), &chain);
  EXPECT_EQ(chain, full_chain);
  for (std::size_t i = 0; i < n; ++i) {
    expect_fault_eq(block[i], mask[i] ? full.devices[i] : untouched);
  }
}

// ---------------------------------------------------------------------------
// Order-independent fleet sampling.
// ---------------------------------------------------------------------------

TEST(FleetSampling, ShardedFillMatchesSequential) {
  const FleetModel model;
  const std::uint64_t seed = 321;
  const FleetState sequential = make_fleet_state(257, model, seed);

  FleetState sharded;
  sharded.resize(257);
  // Out-of-order disjoint shards.
  fill_fleet_range(sharded, 200, 257, model, seed);
  fill_fleet_range(sharded, 0, 100, model, seed);
  fill_fleet_range(sharded, 100, 200, model, seed);

  ASSERT_EQ(sequential.size(), sharded.size());
  for (std::size_t i = 0; i < sequential.size(); ++i) {
    EXPECT_EQ(sequential.cycles_per_bit()[i], sharded.cycles_per_bit()[i]);
    EXPECT_EQ(sequential.dataset_bits()[i], sharded.dataset_bits()[i]);
    EXPECT_EQ(sequential.capacitance()[i], sharded.capacitance()[i]);
    EXPECT_EQ(sequential.max_freq_hz()[i], sharded.max_freq_hz()[i]);
    EXPECT_EQ(sequential.tx_power_w()[i], sharded.tx_power_w()[i]);
  }

  // Per-device draws are pure functions of (seed, id).
  const DeviceProfile d42 = sample_device(model, seed, 42);
  const DeviceProfile s42 = sequential.device(42);
  EXPECT_EQ(d42.cycles_per_bit, s42.cycles_per_bit);
  EXPECT_EQ(d42.dataset_bits, s42.dataset_bits);
  EXPECT_EQ(d42.max_freq_hz, s42.max_freq_hz);
}

TEST(FleetSampling, DistinctSeedsAndDevicesDiffer) {
  const FleetModel model;
  const FleetState a = make_fleet_state(20, model, 1);
  const FleetState b = make_fleet_state(20, model, 2);
  bool seed_differs = false;
  for (std::size_t i = 0; i < 20; ++i) {
    if (a.dataset_bits()[i] != b.dataset_bits()[i]) seed_differs = true;
  }
  EXPECT_TRUE(seed_differs);
  EXPECT_NE(a.dataset_bits()[0], a.dataset_bits()[1]);
}

TEST(FleetSampling, BuildFleetSimulatorIsDeterministic) {
  ExperimentConfig cfg = testbed_config();
  cfg.trace_samples = 100;
  const FlSimulator a = build_fleet_simulator(cfg);
  const FlSimulator b = build_fleet_simulator(cfg);
  ASSERT_EQ(a.num_devices(), b.num_devices());
  for (std::size_t i = 0; i < a.num_devices(); ++i) {
    EXPECT_EQ(a.fleet().dataset_bits(i), b.fleet().dataset_bits(i));
    EXPECT_EQ(a.trace(i).samples(), b.trace(i).samples());
  }
  // The legacy build_simulator path is untouched: same config still
  // yields the golden-pinned AoS fleet (spot check determinism + that
  // the two builders draw their trace pools from the same stream — every
  // legacy device trace is an entry of the fleet builder's pool).
  const FlSimulator legacy = build_simulator(cfg);
  ASSERT_EQ(legacy.num_devices(), a.num_devices());
  for (std::size_t i = 0; i < legacy.num_devices(); ++i) {
    bool in_pool = false;
    for (const BandwidthTrace& t : a.trace_table().pool()) {
      if (legacy.trace(i).samples() == t.samples()) in_pool = true;
    }
    EXPECT_TRUE(in_pool) << "legacy trace " << i
                         << " not drawn from the shared pool stream";
  }
}

// ---------------------------------------------------------------------------
// Cohort sampling.
// ---------------------------------------------------------------------------

TEST(CohortSampling, DeterministicSortedAndSized) {
  const Cohort c1 = sample_cohort(1000, 100, 77, 3);
  const Cohort c2 = sample_cohort(1000, 100, 77, 3);
  ASSERT_EQ(c1.size(), 100u);
  EXPECT_EQ(c1.indices, c2.indices);
  EXPECT_TRUE(std::is_sorted(c1.indices.begin(), c1.indices.end()));
  EXPECT_TRUE(std::adjacent_find(c1.indices.begin(), c1.indices.end()) ==
              c1.indices.end());
  for (std::size_t i : c1.indices) EXPECT_LT(i, 1000u);

  const Cohort other_round = sample_cohort(1000, 100, 77, 4);
  EXPECT_NE(c1.indices, other_round.indices);

  const Cohort everyone = sample_cohort(10, 50, 77, 0);
  ASSERT_EQ(everyone.size(), 10u);
  for (std::size_t i = 0; i < 10; ++i) EXPECT_EQ(everyone.indices[i], i);
}

TEST(CohortSampling, MaskMatchesIndices) {
  const Cohort c = sample_cohort(64, 16, 5, 9);
  const std::vector<bool> mask = c.mask(64);
  ASSERT_EQ(mask.size(), 64u);
  std::size_t set = 0;
  for (std::size_t i = 0; i < 64; ++i) {
    if (mask[i]) ++set;
  }
  EXPECT_EQ(set, c.size());
  for (std::size_t i : c.indices) EXPECT_TRUE(mask[i]);
}

TEST(CohortSampling, CandidateFilterMatchesFullRanking) {
  for (std::size_t n : {std::size_t{1}, std::size_t{63}, std::size_t{4097},
                        std::size_t{1} << 20}) {
    for (std::size_t k : {std::size_t{1}, n / 10, n - 1, n}) {
      if (k == 0) continue;
      SCOPED_TRACE(::testing::Message() << "n " << n << " k " << k);
      const Cohort full = detail::sample_cohort_with_cut(n, k, 17, 2, 1.0);
      ASSERT_EQ(full.size(), k);
      EXPECT_EQ(sample_cohort(n, k, 17, 2).indices, full.indices);
      // A cut almost nothing passes takes the full-ranking fallback.
      EXPECT_EQ(detail::sample_cohort_with_cut(n, k, 17, 2, 0.0).indices,
                full.indices);
    }
  }
}

/// Test-side copy of the documented cohort key: SplitMix64 over the
/// order-free (seed, round, id) combine.
std::uint64_t oracle_cohort_key(std::uint64_t seed, std::uint64_t round,
                                std::uint64_t id) {
  const std::uint64_t a = seed ^ (round * 0x9e3779b97f4a7c15ULL);
  std::uint64_t z = (a ^ (id + 0x9e3779b97f4a7c15ULL + (a << 6) + (a >> 2))) +
                    0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

TEST(CohortSampling, MatchesFullSortOracle) {
  const std::uint64_t seed = 23;
  for (std::size_t n : {std::size_t{1}, std::size_t{63}, std::size_t{4097},
                        std::size_t{1} << 20}) {
    for (std::size_t round : {0u, 1u, 7u}) {
      // Rank the whole fleet by (key, id) with a full sort.
      std::vector<std::pair<std::uint64_t, std::size_t>> ranked(n);
      for (std::size_t i = 0; i < n; ++i) {
        ranked[i] = {oracle_cohort_key(seed, round, i), i};
      }
      std::sort(ranked.begin(), ranked.end());
      for (std::size_t k : {std::size_t{1}, n / 10, n - 1, n}) {
        if (k == 0) continue;
        SCOPED_TRACE(::testing::Message()
                     << "n " << n << " k " << k << " round " << round);
        std::vector<std::size_t> expected(k);
        for (std::size_t j = 0; j < k; ++j) expected[j] = ranked[j].second;
        std::sort(expected.begin(), expected.end());
        EXPECT_EQ(sample_cohort(n, k, seed, round).indices, expected);
      }
    }
  }
}

TEST(CohortSampling, CohortStepPricesOnlyMembers) {
  const std::size_t n = 200;
  const FleetState fleet = make_fleet_state(n, FleetModel{}, 8);
  const TraceTable traces = make_traces(n);
  FlSimulator sim(fleet, traces, fleet_params());
  const Cohort cohort = sample_cohort(n, 40, 8, 0);
  const std::vector<bool> mask = cohort.mask(n);
  const auto freqs = make_freqs(fleet);
  const IterationResult r = sim.step(freqs, StepOptions::with_participants(mask));
  EXPECT_EQ(r.num_scheduled, cohort.size());
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(r.devices[i].participated, static_cast<bool>(mask[i]));
  }
}

}  // namespace
}  // namespace fedra
