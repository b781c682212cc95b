#include "fault/fault_model.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "sim/simulator.hpp"
#include "trace/generator.hpp"
#include "trace/transforms.hpp"
#include "util/rng.hpp"

namespace fedra {
namespace {

using fault::DeviceFault;
using fault::FaultConfig;
using fault::FaultModel;
using fault::RoundFaults;

DeviceProfile simple_device(double cycles = 1e9, double max_freq = 1e9,
                            double alpha = 1e-28, double tx_power = 1.0) {
  DeviceProfile d;
  d.cycles_per_bit = 1.0;
  d.dataset_bits = cycles;
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

FlSimulator one_device_sim() {
  return FlSimulator({simple_device()}, {constant_trace(50.0, 100)},
                     simple_params());
}

FaultConfig chaos_config() {
  FaultConfig cfg;
  cfg.dropout_prob = 0.15;
  cfg.straggler_prob = 0.3;
  cfg.crash_prob = 0.1;
  cfg.rejoin_prob = 0.5;
  cfg.blackout_prob = 0.2;
  cfg.blackout_duration_s = 10.0;
  cfg.blackout_max_offset_s = 5.0;
  cfg.upload_failure_prob = 0.25;
  cfg.max_retries = 2;
  return cfg;
}

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

// Bit-exact comparison (EXPECT_EQ on doubles on purpose): determinism and
// the golden legacy-equivalence guarantee are exact, not approximate.
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
    const auto& da = a.devices[i];
    const auto& db = b.devices[i];
    EXPECT_EQ(da.participated, db.participated);
    EXPECT_EQ(da.completed, db.completed);
    EXPECT_EQ(da.failure, db.failure);
    EXPECT_EQ(da.retries, db.retries);
    EXPECT_EQ(da.freq_hz, db.freq_hz);
    EXPECT_EQ(da.compute_time, db.compute_time);
    EXPECT_EQ(da.comm_time, db.comm_time);
    EXPECT_EQ(da.total_time, db.total_time);
    EXPECT_EQ(da.idle_time, db.idle_time);
    EXPECT_EQ(da.compute_energy, db.compute_energy);
    EXPECT_EQ(da.comm_energy, db.comm_energy);
    EXPECT_EQ(da.energy, db.energy);
    EXPECT_EQ(da.avg_bandwidth, db.avg_bandwidth);
  }
}

TEST(FaultModel, DefaultConstructedIsDisabled) {
  FaultModel m;
  EXPECT_FALSE(m.enabled());
  auto round = m.peek(0, 3);
  EXPECT_EQ(round.devices.size(), 3u);
  EXPECT_FALSE(round.any());
}

TEST(FaultModel, AllZeroConfigIsDisabled) {
  FaultModel m(FaultConfig{}, 42);
  EXPECT_FALSE(m.enabled());
  EXPECT_FALSE(m.advance(0, 4).any());
}

TEST(FaultModel, SameSeedSameConfigBitIdenticalDraws) {
  FaultModel a(chaos_config(), 123);
  FaultModel b(chaos_config(), 123);
  for (std::size_t k = 0; k < 10; ++k) {
    auto ra = a.advance(k, 8);
    auto rb = b.advance(k, 8);
    ASSERT_EQ(ra.devices.size(), rb.devices.size());
    for (std::size_t i = 0; i < ra.devices.size(); ++i) {
      expect_fault_eq(ra.devices[i], rb.devices[i]);
    }
  }
}

TEST(FaultModel, DifferentSeedsDiverge) {
  FaultModel a(chaos_config(), 1);
  FaultModel b(chaos_config(), 2);
  bool differed = false;
  for (std::size_t k = 0; k < 20 && !differed; ++k) {
    auto ra = a.peek(k, 8);
    auto rb = b.peek(k, 8);
    for (std::size_t i = 0; i < 8; ++i) {
      const auto& fa = ra.devices[i];
      const auto& fb = rb.devices[i];
      if (fa.crashed != fb.crashed || fa.dropout != fb.dropout ||
          fa.compute_slowdown != fb.compute_slowdown ||
          fa.failed_uploads != fb.failed_uploads) {
        differed = true;
      }
    }
  }
  EXPECT_TRUE(differed);
}

TEST(FaultModel, DrawsIndependentOfCallOrder) {
  // The per-(iteration, device) stream is a pure hash: peeking other
  // iterations first must not change what iteration 5 looks like.
  FaultModel fresh(chaos_config(), 7);
  FaultModel wandered(chaos_config(), 7);
  (void)wandered.peek(0, 6);
  (void)wandered.peek(11, 6);
  (void)wandered.peek(3, 6);
  auto ra = fresh.peek(5, 6);
  auto rb = wandered.peek(5, 6);
  for (std::size_t i = 0; i < 6; ++i) {
    expect_fault_eq(ra.devices[i], rb.devices[i]);
  }
}

TEST(FaultModel, PeekDoesNotAdvanceCrashChain) {
  FaultConfig cfg;
  cfg.crash_prob = 1.0;
  cfg.rejoin_prob = 0.0;
  FaultModel m(cfg, 9);
  (void)m.peek(0, 4);
  EXPECT_EQ(m.num_crashed(), 0u);
  auto round = m.advance(0, 4);
  EXPECT_EQ(m.num_crashed(), 4u);
  for (const auto& f : round.devices) EXPECT_TRUE(f.crashed);
  // rejoin_prob == 0: they stay down forever.
  auto next = m.advance(1, 4);
  for (const auto& f : next.devices) EXPECT_TRUE(f.crashed);
}

TEST(FaultModel, RejoinRevivesCrashedDevices) {
  FaultConfig cfg;
  cfg.crash_prob = 1.0;
  cfg.rejoin_prob = 1.0;
  FaultModel m(cfg, 9);
  (void)m.advance(0, 3);
  EXPECT_EQ(m.num_crashed(), 3u);
  auto next = m.advance(1, 3);
  EXPECT_EQ(m.num_crashed(), 0u);
  for (const auto& f : next.devices) EXPECT_FALSE(f.crashed);
}

TEST(FaultModel, ResetClearsCrashChain) {
  FaultConfig cfg;
  cfg.crash_prob = 1.0;
  FaultModel m(cfg, 3);
  (void)m.advance(0, 5);
  EXPECT_GT(m.num_crashed(), 0u);
  m.reset();
  EXPECT_EQ(m.num_crashed(), 0u);
}

// The crash chain is stored as 64-device words. draw_block steps it a word
// at a time and advance() one device at a time; both must leave the chain
// these bits pin for 130 devices after four rounds.
TEST(FaultModel, CrashChainBitsArePinned) {
  const std::string pinned =
      "11111010010011110011011001111010111000010001110011010110001101000"
      "00000101110010011111001000100001111010111000101011111000100110001";
  FaultConfig cfg;
  cfg.dropout_prob = 0.1;
  cfg.crash_prob = 0.3;
  cfg.rejoin_prob = 0.4;
  FaultModel stepped(cfg, 130);
  FaultModel advanced(cfg, 130);
  for (std::size_t k = 0; k < 4; ++k) {
    std::vector<std::uint64_t>& chain = stepped.chain_for(130);
    stepped.draw_block(k, 0, 130, chain, {}, nullptr, &chain);
    (void)advanced.advance(k, 130);
  }
  const auto bits_of = [](const FaultModel& model) {
    std::string bits;
    for (const bool crashed : model.crash_state()) bits += crashed ? '1' : '0';
    return bits;
  };
  EXPECT_EQ(bits_of(stepped), pinned);
  EXPECT_EQ(bits_of(advanced), pinned);
}

TEST(FaultModel, RejectsMoreThan64Retries) {
  FaultConfig cfg;
  cfg.upload_failure_prob = 1.0;
  cfg.max_retries = 65;
  EXPECT_DEATH(FaultModel(cfg, 1), "precondition");
  cfg.max_retries = SIZE_MAX;
  EXPECT_DEATH(FaultModel(cfg, 1), "precondition");
}

TEST(FaultSimulator, SixtyFourRetriesExhaustWithinRange) {
  // The largest accepted budget: 64 retries, every attempt fails, and the
  // last backoff factor is 2^63.
  FaultConfig cfg;
  cfg.upload_failure_prob = 1.0;
  cfg.max_retries = 64;
  cfg.retry_backoff_s = 0.0;
  FaultModel model(cfg, 1);
  FlSimulator sim = one_device_sim();
  StepOptions options;
  options.fault_model = &model;
  const IterationResult r = sim.step({0.5e9}, options);
  EXPECT_EQ(r.num_upload_failures, 1u);
  EXPECT_EQ(r.total_retries, 64u);
}

// ---------------------------------------------------------------------------
// The word-wise crash chain == the per-device reference draw.
// ---------------------------------------------------------------------------

std::vector<std::uint64_t> words_of(const std::vector<bool>& bits) {
  std::vector<std::uint64_t> words((bits.size() + 63) / 64, 0);
  for (std::size_t i = 0; i < bits.size(); ++i) {
    if (bits[i]) words[i / 64] |= std::uint64_t{1} << (i % 64);
  }
  return words;
}

std::vector<bool> bits_of(const std::vector<std::uint64_t>& words,
                          std::size_t n) {
  std::vector<bool> bits(n);
  for (std::size_t i = 0; i < n; ++i) {
    bits[i] = ((words[i / 64] >> (i % 64)) & 1) != 0;
  }
  return bits;
}

/// draw_block over [begin, end) of an n-device chain whose prior state is
/// `was` (possibly shorter than n) against draw_range: every third device
/// of the range is a member, and both a separate and an in-place `now`
/// must end with the reference's chain, bits outside the range kept.
void expect_word_chain_matches_reference(const FaultModel& model,
                                         std::size_t iteration,
                                         std::size_t begin, std::size_t end,
                                         std::size_t n,
                                         const std::vector<bool>& was) {
  SCOPED_TRACE(::testing::Message() << "range [" << begin << ", " << end
                                    << ") of " << n << ", chain "
                                    << was.size());
  std::vector<bool> padded = was;
  padded.resize(n);
  RoundFaults round;
  round.devices.resize(n);
  std::vector<bool> expected = padded;
  model.draw_range(iteration, begin, end, was, &round, &expected);

  std::vector<std::size_t> members;
  for (std::size_t k = 0; begin + k < end; k += 3) members.push_back(k);
  std::vector<DeviceFault> out(members.size());
  const std::vector<std::uint64_t> was_words = words_of(was);
  std::vector<std::uint64_t> now = words_of(padded);
  model.draw_block(iteration, begin, end, was_words, members, out.data(),
                   &now);
  EXPECT_EQ(bits_of(now, n), expected);
  for (std::size_t j = 0; j < members.size(); ++j) {
    expect_fault_eq(out[j], round.devices[begin + members[j]]);
  }

  std::vector<std::uint64_t> in_place = words_of(padded);
  model.draw_block(iteration, begin, end, in_place, {}, nullptr, &in_place);
  EXPECT_EQ(bits_of(in_place, n), expected);
}

std::vector<std::pair<std::size_t, std::size_t>> ranges_of(std::size_t n) {
  const std::size_t head = std::min<std::size_t>(n, 5);
  return {{0, n}, {n / 3, n}, {head, std::max(head, n - n / 4)}};
}

TEST(FaultChainWords, MatchesReferenceAcrossProbabilities) {
  const std::size_t sizes[] = {1, 63, 64, 65, 4113, 3 * 4096 + 17};
  const double probs[] = {0.0, 0x1.0p-53, 0.02, 0.1, 0.25, 0.5, 1.0};
  for (const double crash : probs) {
    for (const double rejoin : probs) {
      SCOPED_TRACE(::testing::Message() << "crash " << crash << " rejoin "
                                        << rejoin);
      FaultConfig cfg;
      cfg.dropout_prob = 0.1;  // enabled even when crash_prob is 0
      cfg.straggler_prob = 0.2;
      cfg.crash_prob = crash;
      cfg.rejoin_prob = rejoin;
      const FaultModel model(cfg, 99);
      for (const std::size_t n : sizes) {
        for (const bool down : {false, true}) {
          const std::vector<bool> was(n, down);
          for (const auto& [begin, end] : ranges_of(n)) {
            expect_word_chain_matches_reference(model, 3, begin, end, n,
                                                was);
          }
        }
      }
    }
  }
}

TEST(FaultChainWords, MatchesReferenceOnMixedAndShortChains) {
  const FaultModel model(chaos_config(), 5);
  Rng rng(11);
  for (const std::size_t n : {65u, 4113u, 3u * 4096u + 17u}) {
    std::vector<bool> was(n);
    for (std::size_t i = 0; i < n; ++i) was[i] = rng.bernoulli(0.4);
    for (const std::size_t len : {n, n / 2, std::size_t{70}, std::size_t{0}}) {
      const std::vector<bool> shorter(was.begin(),
                                      was.begin() + static_cast<long>(len));
      for (const auto& [begin, end] : ranges_of(n)) {
        for (std::size_t iteration : {0u, 7u}) {
          expect_word_chain_matches_reference(model, iteration, begin, end,
                                              n, shorter);
        }
      }
    }
  }
}

TEST(FaultChainWords, CrashStateRoundTripsOffWordBoundary) {
  FaultModel m(chaos_config(), 4);
  std::vector<bool> state(130);
  std::size_t down = 0;
  for (std::size_t i = 0; i < state.size(); ++i) {
    state[i] = i % 3 == 0 || i == 129;
    down += state[i] ? 1 : 0;
  }
  m.set_crash_state(state);
  EXPECT_EQ(m.crash_state(), state);
  EXPECT_EQ(m.num_crashed(), down);
  EXPECT_EQ(m.crash_words().size(), 3u);

  // Growing the chain adds healthy devices and keeps the rest.
  (void)m.chain_for(200);
  std::vector<bool> grown = state;
  grown.resize(200);
  EXPECT_EQ(m.crash_state(), grown);
  EXPECT_EQ(m.num_crashed(), down);
  (void)m.chain_for(100);  // never shrinks
  EXPECT_EQ(m.crash_state().size(), 200u);

  m.reset();
  EXPECT_TRUE(m.crash_state().empty());
  EXPECT_EQ(m.num_crashed(), 0u);
}

TEST(FaultSimulator, DisabledModelMatchesPlainOptionsBitExact) {
  FlSimulator a = one_device_sim();
  FlSimulator b = one_device_sim();
  FaultModel disabled;
  StepOptions with_model;
  with_model.fault_model = &disabled;
  for (std::size_t k = 0; k < 5; ++k) {
    auto ra = a.step({0.5e9}, {});
    auto rb = b.step({0.5e9}, with_model);
    expect_result_eq(ra, rb);
  }
}


TEST(FaultSimulator, StepSequenceDeterministicUnderFaults) {
  FlSimulator a({simple_device(), simple_device(2e9)},
                {constant_trace(50.0, 100), constant_trace(80.0, 100)},
                simple_params());
  FlSimulator b = a;
  FaultModel ma(chaos_config(), 77);
  FaultModel mb(chaos_config(), 77);
  StepOptions oa;
  oa.fault_model = &ma;
  oa.deadline = 40.0;
  StepOptions ob;
  ob.fault_model = &mb;
  ob.deadline = 40.0;
  for (std::size_t k = 0; k < 25; ++k) {
    auto ra = a.step({0.5e9, 1e9}, oa);
    auto rb = b.step({0.5e9, 1e9}, ob);
    expect_result_eq(ra, rb);
  }
  EXPECT_EQ(a.now(), b.now());
}

TEST(FaultSimulator, PreviewDoesNotTouchSimulatorOrFaultState) {
  FlSimulator sim = one_device_sim();
  FaultConfig cfg;
  cfg.crash_prob = 1.0;
  FaultModel m(cfg, 5);
  StepOptions options;
  options.fault_model = &m;
  const double t0 = sim.now();
  auto r = sim.preview({0.5e9}, options);
  EXPECT_EQ(r.num_crashes, 1u);
  EXPECT_EQ(sim.now(), t0);
  EXPECT_EQ(sim.iteration(), 0u);
  EXPECT_EQ(m.num_crashed(), 0u);  // peeked, not advanced
}

TEST(FaultSimulator, ForcedDropoutChargesPartialEnergy) {
  // Full timeline at 0.5 GHz: compute 2 s (0.025 J) + upload 2 s (2 J).
  // Dropout at frac 0.5 cuts at 2 s: full compute, no upload.
  FlSimulator sim = one_device_sim();
  RoundFaults faults;
  faults.devices.resize(1);
  faults.devices[0].dropout = true;
  faults.devices[0].dropout_frac = 0.5;
  StepOptions options;
  options.faults = &faults;
  auto r = sim.step({0.5e9}, options);
  const auto& d = r.devices[0];
  EXPECT_FALSE(d.completed);
  EXPECT_EQ(d.failure, DeviceFailure::kDropout);
  EXPECT_NEAR(d.total_time, 2.0, 1e-12);
  EXPECT_NEAR(d.compute_time, 2.0, 1e-12);
  EXPECT_NEAR(d.comm_time, 0.0, 1e-12);
  EXPECT_NEAR(d.energy, 0.025, 1e-12);
  EXPECT_DOUBLE_EQ(d.avg_bandwidth, 0.0);
  EXPECT_EQ(r.num_dropouts, 1u);
  EXPECT_EQ(r.num_completed, 0u);
  EXPECT_TRUE(r.partial());
  // The lost round still costs its energy and occupies the server until
  // the vanish is resolved.
  EXPECT_NEAR(r.iteration_time, 2.0, 1e-12);
  EXPECT_NEAR(r.total_energy, 0.025, 1e-12);
}

TEST(FaultSimulator, DeadlineTimesOutSlowHealthyDevice) {
  // Device 0 at 0.5 GHz: 2 s compute + 2 s upload = 4 s > deadline 3.
  // Device 1 at 1 GHz: 1 s compute + 2 s upload = 3 s, just makes it.
  FlSimulator sim({simple_device(), simple_device()},
                  {constant_trace(50.0, 100), constant_trace(50.0, 100)},
                  simple_params());
  StepOptions options;
  options.deadline = 3.0;
  auto r = sim.step({0.5e9, 1e9}, options);
  const auto& slow = r.devices[0];
  const auto& fast = r.devices[1];
  EXPECT_FALSE(slow.completed);
  EXPECT_EQ(slow.failure, DeviceFailure::kTimeout);
  EXPECT_NEAR(slow.total_time, 3.0, 1e-12);
  // Charged what it actually spent: all compute + half the upload.
  EXPECT_NEAR(slow.compute_energy, 0.025, 1e-12);
  EXPECT_NEAR(slow.comm_energy, 1.0, 1e-12);
  EXPECT_TRUE(fast.completed);
  EXPECT_NEAR(fast.total_time, 3.0, 1e-12);
  EXPECT_EQ(r.num_timeouts, 1u);
  EXPECT_EQ(r.num_completed, 1u);
  EXPECT_NEAR(r.iteration_time, 3.0, 1e-12);
}

TEST(FaultSimulator, UploadRetriesAddBackoffAndEnergy) {
  // One failed attempt, then success: compute 2 s, upload 2 s (lost),
  // backoff 1 s, upload 2 s (delivered) => 7 s total, 4 s comm.
  FlSimulator sim = one_device_sim();
  RoundFaults faults;
  faults.devices.resize(1);
  faults.devices[0].failed_uploads = 1;
  faults.devices[0].retry_backoff_s = 1.0;
  StepOptions options;
  options.faults = &faults;
  auto r = sim.step({0.5e9}, options);
  const auto& d = r.devices[0];
  EXPECT_TRUE(d.completed);
  EXPECT_EQ(d.failure, DeviceFailure::kNone);
  EXPECT_EQ(d.retries, 1u);
  EXPECT_NEAR(d.total_time, 7.0, 1e-9);
  EXPECT_NEAR(d.comm_time, 4.0, 1e-9);
  EXPECT_NEAR(d.comm_energy, 4.0, 1e-9);  // radio on for both attempts
  EXPECT_NEAR(d.avg_bandwidth, 50.0, 1e-6);
  EXPECT_EQ(r.total_retries, 1u);
  EXPECT_EQ(r.num_completed, 1u);
}

TEST(FaultSimulator, ExhaustedRetriesLoseTheUpdate) {
  // max_retries exhausted: 3 failed attempts (2 s each) with backoffs of
  // 1 s and 2 s between them => 2 + 2 + 1 + 2 + 2 + 2 = 11 s.
  FlSimulator sim = one_device_sim();
  RoundFaults faults;
  faults.devices.resize(1);
  faults.devices[0].failed_uploads = 3;
  faults.devices[0].upload_exhausted = true;
  faults.devices[0].retry_backoff_s = 1.0;
  StepOptions options;
  options.faults = &faults;
  auto r = sim.step({0.5e9}, options);
  const auto& d = r.devices[0];
  EXPECT_FALSE(d.completed);
  EXPECT_EQ(d.failure, DeviceFailure::kUpload);
  EXPECT_EQ(d.retries, 2u);
  EXPECT_NEAR(d.total_time, 11.0, 1e-9);
  EXPECT_NEAR(d.comm_time, 6.0, 1e-9);
  EXPECT_DOUBLE_EQ(d.avg_bandwidth, 0.0);
  EXPECT_EQ(r.num_upload_failures, 1u);
  EXPECT_EQ(r.num_completed, 0u);
}

TEST(FaultSimulator, BackoffKeepsDoublingPastSixtyFourFailedUploads) {
  // An explicit assignment may exceed FaultModel's retry cap: 70 failed
  // attempts wait backoff * 2^a after attempt a, up to a = 68, past what
  // a 64-bit shift can express.
  const FlSimulator base = one_device_sim();
  RoundFaults faults;
  faults.devices.resize(1);
  faults.devices[0].failed_uploads = 70;
  faults.devices[0].upload_exhausted = true;
  faults.devices[0].retry_backoff_s = std::ldexp(1.0, -60);  // 2^-60..2^8 s
  // Start of each upload attempt: 2 s compute, then 2 s per upload and
  // the backoff after each failed one.
  std::vector<double> starts;
  double t = 2.0;
  for (std::size_t a = 0; a < 70; ++a) {
    starts.push_back(t);
    t += 2.0;
    if (a + 1 < 70) {
      t += faults.devices[0].retry_backoff_s *
           std::exp2(static_cast<double>(a));
    }
  }
  StepOptions options;
  options.faults = &faults;
  FlSimulator sim = base;
  const auto full = sim.step({0.5e9}, options);
  const auto& d = full.devices[0];
  EXPECT_EQ(d.failure, DeviceFailure::kUpload);
  EXPECT_TRUE(std::isfinite(d.total_time));
  EXPECT_NEAR(d.total_time, t, 1e-9 * t);
  EXPECT_NEAR(d.comm_time, 140.0, 1e-9);
  // A deadline 1 s into attempt k cuts k + 1/2 uploads only when every
  // earlier wait had its length.
  for (std::size_t k = 1; k < 70; ++k) {
    FlSimulator cut = base;
    options.deadline = starts[k] + 1.0;
    const auto r = cut.step({0.5e9}, options);
    EXPECT_NEAR(r.devices[0].comm_time, 2.0 * static_cast<double>(k) + 1.0,
                1e-6)
        << "attempt " << k;
  }
}

TEST(FaultSimulator, CrashedDeviceCostsNothingAndSitsOut) {
  FlSimulator sim({simple_device(), simple_device()},
                  {constant_trace(50.0, 100), constant_trace(50.0, 100)},
                  simple_params());
  RoundFaults faults;
  faults.devices.resize(2);
  faults.devices[0].crashed = true;
  StepOptions options;
  options.faults = &faults;
  auto r = sim.step({1e9, 1e9}, options);
  const auto& dead = r.devices[0];
  EXPECT_TRUE(dead.participated);  // scheduled, but down
  EXPECT_FALSE(dead.completed);
  EXPECT_EQ(dead.failure, DeviceFailure::kCrash);
  EXPECT_DOUBLE_EQ(dead.total_time, 0.0);
  EXPECT_DOUBLE_EQ(dead.energy, 0.0);
  EXPECT_EQ(r.num_crashes, 1u);
  EXPECT_EQ(r.num_scheduled, 2u);
  EXPECT_EQ(r.num_completed, 1u);
  // The barrier waits only for live devices.
  EXPECT_NEAR(r.iteration_time, r.devices[1].total_time, 1e-12);
}

TEST(FaultSimulator, StragglerSlowdownScalesComputeTimeAndEnergy) {
  FlSimulator sim = one_device_sim();
  RoundFaults faults;
  faults.devices.resize(1);
  faults.devices[0].compute_slowdown = 2.0;
  StepOptions options;
  options.faults = &faults;
  auto r = sim.step({0.5e9}, options);
  const auto& d = r.devices[0];
  EXPECT_TRUE(d.completed);
  EXPECT_NEAR(d.compute_time, 4.0, 1e-12);       // 2 s stretched x2
  EXPECT_NEAR(d.compute_energy, 0.05, 1e-12);    // busy the whole stretch
  EXPECT_NEAR(d.comm_time, 2.0, 1e-12);
  EXPECT_NEAR(d.total_time, 6.0, 1e-12);
}

TEST(FaultSimulator, BlackoutDelaysTheUpload) {
  // Constant 50 B/s trace with a 4 s outage starting 2 s into the round
  // (right when the upload starts): the 100 B payload waits out the
  // blackout, so the upload takes ~4 s of dead air + 2 s of transfer.
  FlSimulator sim = one_device_sim();
  RoundFaults faults;
  faults.devices.resize(1);
  faults.devices[0].blackout_offset = 2.0;
  faults.devices[0].blackout_duration = 4.0;
  StepOptions options;
  options.faults = &faults;
  auto r = sim.step({0.5e9}, options);
  const auto& d = r.devices[0];
  EXPECT_TRUE(d.completed);
  EXPECT_NEAR(d.compute_time, 2.0, 1e-12);
  EXPECT_NEAR(d.comm_time, 6.0, 1e-9);
  EXPECT_NEAR(d.total_time, 8.0, 1e-9);
}

TEST(FaultSimulator, ExplicitFaultsOverrideModel) {
  FlSimulator sim = one_device_sim();
  FaultConfig cfg;
  cfg.crash_prob = 1.0;
  FaultModel m(cfg, 1);
  RoundFaults healthy;
  healthy.devices.resize(1);  // default = no fault
  StepOptions options;
  options.fault_model = &m;
  options.faults = &healthy;  // wins over the model
  auto r = sim.step({0.5e9}, options);
  EXPECT_EQ(r.num_crashes, 0u);
  EXPECT_EQ(r.num_completed, 1u);
}

TEST(FaultSimulator, EnvFaultRunIsReproducibleEndToEnd) {
  // Acceptance-style check: two independent (sim, model) pairs stepping
  // with deadlines and live fault injection produce identical trajectories.
  auto build = [] {
    return FlSimulator(
        {simple_device(), simple_device(2e9, 2e9), simple_device(0.5e9)},
        {constant_trace(50.0, 60), constant_trace(120.0, 60),
         constant_trace(30.0, 60)},
        simple_params());
  };
  FlSimulator a = build();
  FlSimulator b = build();
  // chaos_config() with every probability at 1.5x.
  FaultConfig cfg = chaos_config();
  cfg.dropout_prob *= 1.5;
  cfg.straggler_prob *= 1.5;
  cfg.crash_prob *= 1.5;
  cfg.blackout_prob *= 1.5;
  cfg.upload_failure_prob *= 1.5;
  FaultModel ma(cfg, 2024);
  FaultModel mb(cfg, 2024);
  StepOptions oa;
  oa.fault_model = &ma;
  oa.deadline = 30.0;
  StepOptions ob;
  ob.fault_model = &mb;
  ob.deadline = 30.0;
  std::vector<double> freqs = {0.7e9, 1.4e9, 0.4e9};
  for (std::size_t k = 0; k < 30; ++k) {
    expect_result_eq(a.step(freqs, oa), b.step(freqs, ob));
  }
}

}  // namespace
}  // namespace fedra
