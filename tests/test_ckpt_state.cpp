#include "ckpt/state.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/experiment_config.hpp"

namespace fedra::ckpt {
namespace {

Errc code_of(const std::function<void()>& fn) {
  try {
    fn();
  } catch (const CkptError& e) {
    return e.code();
  }
  ADD_FAILURE() << "expected a CkptError";
  return Errc::kIo;
}

FlEnv make_env(std::uint64_t seed = 42) {
  ExperimentConfig cfg = testbed_config();
  cfg.trace_samples = 400;
  cfg.seed = seed;
  FlEnvConfig env_cfg;
  env_cfg.episode_length = 15;
  env_cfg.slot_seconds = cfg.slot_seconds;
  env_cfg.history_slots = cfg.history_slots;
  return FlEnv(build_simulator(cfg), env_cfg);
}

TEST(CkptState, RngStreamContinuesBitExactly) {
  Rng a(123);
  for (int i = 0; i < 7; ++i) (void)a.gaussian();  // odd count: cache is hot

  ByteWriter w;
  save_rng(w, a);
  Rng b(999);
  load_rng(ByteReader(w.bytes()), b);

  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
    EXPECT_EQ(a.gaussian(), b.gaussian());
    EXPECT_EQ(a.uniform(), b.uniform());
  }
}

TEST(CkptState, RngShortPayloadIsTyped) {
  ByteWriter w;
  Rng a(1);
  save_rng(w, a);
  std::string bytes = w.bytes();
  bytes.pop_back();
  Rng b(2);
  EXPECT_EQ(code_of([&] { load_rng(ByteReader(bytes), b); }),
            Errc::kMalformed);
}

TEST(CkptState, ParamsRoundTripAndShapeCheck) {
  Rng rng(9);
  Matrix a = Matrix::random_gaussian(3, 4, rng);
  Matrix b = Matrix::random_gaussian(1, 6, rng);
  ByteWriter w;
  save_params(w, std::vector<Matrix*>{&a, &b});

  Matrix a2(3, 4), b2(1, 6);
  load_params(ByteReader(w.bytes()), {&a2, &b2});
  EXPECT_EQ(a2, a);
  EXPECT_EQ(b2, b);

  Matrix wrong(4, 3);
  EXPECT_EQ(code_of([&] {
              load_params(ByteReader(w.bytes()), {&a2, &wrong});
            }),
            Errc::kStateMismatch);
  EXPECT_EQ(code_of([&] { load_params(ByteReader(w.bytes()), {&a2}); }),
            Errc::kStateMismatch);

  auto values = load_param_values(ByteReader(w.bytes()));
  ASSERT_EQ(values.size(), 2u);
  EXPECT_EQ(values[0], a);
  EXPECT_EQ(values[1], b);
}

TEST(CkptState, AdamRoundTripRestoresBiasCorrection) {
  Rng rng(11);
  Mlp net({4, 8, 2}, Activation::Tanh, rng);
  Adam opt(net, 1e-3);

  // Drive a few steps so t / m / v are all non-trivial.
  for (int s = 0; s < 5; ++s) {
    for (Matrix* g : net.grads()) {
      for (std::size_t j = 0; j < g->size(); ++j) (*g)[j] = rng.gaussian();
    }
    opt.step();
  }

  ByteWriter w;
  save_adam(w, opt);

  Rng rng2(11);
  Mlp net2({4, 8, 2}, Activation::Tanh, rng2);
  net2.set_param_values(net.param_values());
  Adam opt2(net2, 1e-3);
  load_adam(ByteReader(w.bytes()), opt2);
  EXPECT_EQ(opt2.timestep(), opt.timestep());

  // Identical gradients must now produce identical parameters: the bias
  // correction depends on t, so a lost step counter would diverge here.
  std::vector<double> grad_vals;
  for (Matrix* g : net.grads()) {
    for (std::size_t j = 0; j < g->size(); ++j) {
      (*g)[j] = rng.gaussian();
      grad_vals.push_back((*g)[j]);
    }
  }
  std::size_t k = 0;
  for (Matrix* g : net2.grads()) {
    for (std::size_t j = 0; j < g->size(); ++j) (*g)[j] = grad_vals[k++];
  }
  opt.step();
  opt2.step();
  auto p1 = net.param_values();
  auto p2 = net2.param_values();
  ASSERT_EQ(p1.size(), p2.size());
  for (std::size_t i = 0; i < p1.size(); ++i) EXPECT_EQ(p1[i], p2[i]);

  // A differently-shaped optimizer rejects the snapshot.
  Rng rng3(1);
  Mlp other({4, 6, 2}, Activation::Tanh, rng3);
  Adam opt3(other, 1e-3);
  EXPECT_EQ(code_of([&] { load_adam(ByteReader(w.bytes()), opt3); }),
            Errc::kStateMismatch);
}

TEST(CkptState, RolloutRoundTripMidFill) {
  Rng rng(13);
  RolloutBuffer buf(8);
  for (int i = 0; i < 5; ++i) {  // deliberately mid-fill
    Transition t;
    t.state = {rng.gaussian(), rng.gaussian()};
    t.next_state = {rng.gaussian(), rng.gaussian()};
    t.action_u = {rng.gaussian()};
    t.log_prob = rng.gaussian();
    t.reward = rng.gaussian();
    t.value = rng.gaussian();
    t.next_value = rng.gaussian();
    t.episode_end = (i == 4);
    buf.push(std::move(t));
  }

  ByteWriter w;
  save_rollout(w, buf);
  RolloutBuffer back(8);
  load_rollout(ByteReader(w.bytes()), back);
  ASSERT_EQ(back.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(back[i].state, buf[i].state);
    EXPECT_EQ(back[i].next_state, buf[i].next_state);
    EXPECT_EQ(back[i].action_u, buf[i].action_u);
    EXPECT_EQ(back[i].log_prob, buf[i].log_prob);
    EXPECT_EQ(back[i].reward, buf[i].reward);
    EXPECT_EQ(back[i].value, buf[i].value);
    EXPECT_EQ(back[i].next_value, buf[i].next_value);
    EXPECT_EQ(back[i].episode_end, buf[i].episode_end);
  }

  RolloutBuffer wrong_capacity(16);
  EXPECT_EQ(code_of([&] {
              load_rollout(ByteReader(w.bytes()), wrong_capacity);
            }),
            Errc::kStateMismatch);
}

TEST(CkptState, FaultModelCrashChainRoundTrip) {
  fault::FaultConfig fc;
  fc.crash_prob = 0.4;
  fc.rejoin_prob = 0.2;
  fault::FaultModel model(fc, 77);
  for (std::size_t k = 0; k < 10; ++k) (void)model.advance(k, 5);

  ByteWriter w;
  save_fault_model(w, model);
  fault::FaultModel restored(fc, 77);
  load_fault_model(ByteReader(w.bytes()), restored);
  EXPECT_EQ(restored.crash_state(), model.crash_state());

  // Continued draws must match (same seed, same chain state).
  for (std::size_t k = 10; k < 20; ++k) {
    auto a = model.advance(k, 5);
    auto b = restored.advance(k, 5);
    ASSERT_EQ(a.devices.size(), b.devices.size());
    for (std::size_t i = 0; i < a.devices.size(); ++i) {
      EXPECT_EQ(a.devices[i].crashed, b.devices[i].crashed);
      EXPECT_EQ(a.devices[i].dropout, b.devices[i].dropout);
      EXPECT_EQ(a.devices[i].compute_slowdown, b.devices[i].compute_slowdown);
    }
  }

  fault::FaultModel other_seed(fc, 78);
  EXPECT_EQ(code_of([&] {
              load_fault_model(ByteReader(w.bytes()), other_seed);
            }),
            Errc::kStateMismatch);
}

// The crash chain is stored as 64-device words, but its checkpoint stays
// one byte per device: the bytes of a 130-device chain stepped word-wise
// for four rounds are pinned, as written when the chain was a
// std::vector<bool> (and as the per-device advance() still writes them).
TEST(CkptState, FaultModelBytesArePinned) {
  const std::string pinned =
      "8200000000000000820000000000000001010101010001000001000001010101"
      "0000010100010100000101010100010001010100000000010000000101010000"
      "0101000100010100000001010001000000000000000001000101010000010000"
      "0101010101000001000000010000000001010101000100010101000000010001"
      "000101010101000000010000010100000001";
  fault::FaultConfig fc;
  fc.dropout_prob = 0.1;
  fc.crash_prob = 0.3;
  fc.rejoin_prob = 0.4;
  fault::FaultModel stepped(fc, 130);
  fault::FaultModel advanced(fc, 130);
  for (std::size_t k = 0; k < 4; ++k) {
    std::vector<std::uint64_t>& chain = stepped.chain_for(130);
    stepped.draw_block(k, 0, 130, chain, {}, nullptr, &chain);
    (void)advanced.advance(k, 130);
  }
  const auto hex_of = [](const fault::FaultModel& model) {
    ByteWriter w;
    save_fault_model(w, model);
    std::string hex;
    for (const unsigned char b : w.bytes()) {
      static const char* const kDigits = "0123456789abcdef";
      hex += kDigits[b >> 4];
      hex += kDigits[b & 15];
    }
    return hex;
  };
  EXPECT_EQ(hex_of(stepped), pinned);
  EXPECT_EQ(hex_of(advanced), pinned);
}

TEST(CkptState, IterationResultRoundTripsAllFields) {
  IterationResult r;
  r.start_time = 12.5;
  r.iteration_time = 30.25;
  r.total_energy = 4.75;
  r.total_compute_energy = 3.5;
  r.cost = 31.0;
  r.reward = -31.0;
  r.num_scheduled = 3;
  r.num_completed = 2;
  r.num_crashes = 1;
  r.num_dropouts = 0;
  r.num_timeouts = 0;
  r.num_upload_failures = 0;
  r.total_retries = 4;
  for (int i = 0; i < 3; ++i) {
    DeviceOutcome d;
    d.participated = true;
    d.completed = (i != 1);
    d.failure = (i == 1) ? DeviceFailure::kCrash : DeviceFailure::kNone;
    d.retries = static_cast<std::size_t>(i);
    d.freq_hz = 1e9 + i;
    d.compute_time = 10.0 + i;
    d.comm_time = 2.0 + i;
    d.total_time = 12.0 + 2 * i;
    d.idle_time = 1.0;
    d.compute_energy = 0.5;
    d.comm_energy = 0.25;
    d.energy = 0.75;
    d.avg_bandwidth = 2.5e6;
    r.devices.push_back(d);
  }

  ByteWriter w;
  save_iteration_result(w, r);
  ByteReader in(w.bytes());
  IterationResult back = load_iteration_result(in);
  in.expect_end();

  EXPECT_EQ(back.start_time, r.start_time);
  EXPECT_EQ(back.iteration_time, r.iteration_time);
  EXPECT_EQ(back.total_energy, r.total_energy);
  EXPECT_EQ(back.cost, r.cost);
  EXPECT_EQ(back.num_scheduled, r.num_scheduled);
  EXPECT_EQ(back.num_completed, r.num_completed);
  EXPECT_EQ(back.total_retries, r.total_retries);
  ASSERT_EQ(back.devices.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(back.devices[i].completed, r.devices[i].completed);
    EXPECT_EQ(back.devices[i].failure, r.devices[i].failure);
    EXPECT_EQ(back.devices[i].retries, r.devices[i].retries);
    EXPECT_EQ(back.devices[i].freq_hz, r.devices[i].freq_hz);
    EXPECT_EQ(back.devices[i].participated, r.devices[i].participated);
    EXPECT_EQ(back.devices[i].avg_bandwidth, r.devices[i].avg_bandwidth);
  }
}

TEST(CkptState, IterationResultRejectsBadFailureEnum) {
  IterationResult r;
  r.num_scheduled = 1;
  r.num_completed = 1;
  r.devices.emplace_back();
  ByteWriter w;
  save_iteration_result(w, r);
  std::string bytes = w.bytes();
  // The failure byte is the third device field: flip it to an undefined
  // enumerator value.
  const std::size_t failure_at = 13 * 8 + 8 + 2;  // 13 f64/u64 + count + 2 bools
  ASSERT_LT(failure_at, bytes.size());
  bytes[failure_at] = 42;
  EXPECT_EQ(code_of([&] {
              ByteReader in(bytes);
              (void)load_iteration_result(in);
            }),
            Errc::kMalformed);
}

TEST(CkptState, EnvRoundTripContinuesIdentically) {
  FlEnv env = make_env();
  fault::FaultConfig fc;
  fc.dropout_prob = 0.2;
  fc.crash_prob = 0.1;
  env.set_fault_model(fault::FaultModel(fc, 5));
  Rng rng(3);
  std::vector<double> state = env.reset(rng);
  const std::vector<double> action(env.action_dim(), 0.7);
  for (int i = 0; i < 4; ++i) (void)env.step(action);

  ByteWriter w;
  save_env(w, env);

  FlEnv fresh = make_env();
  fresh.set_fault_model(fault::FaultModel(fc, 5));
  load_env(ByteReader(w.bytes()), fresh);

  EXPECT_EQ(fresh.steps_in_episode(), env.steps_in_episode());
  EXPECT_EQ(fresh.simulator().now(), env.simulator().now());
  EXPECT_EQ(fresh.simulator().iteration(), env.simulator().iteration());
  EXPECT_EQ(fresh.observe(), env.observe());

  // The two envs must now evolve in lockstep, faults included.
  for (int i = 0; i < 6; ++i) {
    StepResult a = env.step(action);
    StepResult b = fresh.step(action);
    EXPECT_EQ(a.reward, b.reward);
    EXPECT_EQ(a.state, b.state);
    EXPECT_EQ(a.info.num_completed, b.info.num_completed);
    EXPECT_EQ(a.done, b.done);
  }
}

TEST(CkptState, EnvRejectsMismatchedTarget) {
  FlEnv env = make_env(42);
  Rng rng(3);
  (void)env.reset(rng);
  ByteWriter w;
  save_env(w, env);

  // Same topology, different seed -> different traces -> different
  // bandwidth reference.
  FlEnv other = make_env(43);
  EXPECT_EQ(code_of([&] { load_env(ByteReader(w.bytes()), other); }),
            Errc::kStateMismatch);
}

// The agent's checkpoint sections carry the whole model: an agent built
// from another seed acts and values bit for bit like the saved one.
TEST(Ppo, SaveLoadRoundTrip) {
  PolicyConfig pcfg;
  PpoAgent a(2, 1, pcfg, PpoConfig{}, 13);
  PpoAgent b(2, 1, pcfg, PpoConfig{}, 14);
  const std::vector<double> state{0.5, 0.5};
  EXPECT_NE(a.mean_action(state), b.mean_action(state));
  Writer out;
  save_ppo_agent(out, a);
  load_ppo_agent(Reader::from_bytes(out.encode()), b);
  EXPECT_EQ(a.mean_action(state), b.mean_action(state));
  EXPECT_EQ(b.behavior_policy().mean_action(state),
            a.behavior_policy().mean_action(state));
  EXPECT_EQ(a.value(state), b.value(state));
}

}  // namespace
}  // namespace fedra::ckpt
