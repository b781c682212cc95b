#include "serve/engine.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

#include "core/offline_trainer.hpp"
#include "serve/session.hpp"
#include "util/rng.hpp"

namespace fedra {
namespace {

using serve::DecideResult;
using serve::DecideStatus;
using serve::GaussianMeanPolicy;
using serve::InferenceEngine;
using serve::ServeConfig;
using serve::SessionManager;

constexpr std::size_t kStateDim = 12;
constexpr std::size_t kActionDim = 3;

PolicyConfig small_policy_config() {
  PolicyConfig pc;
  pc.hidden = {16, 16};
  return pc;
}

std::vector<double> random_state(Rng& rng, std::size_t dim = kStateDim) {
  std::vector<double> s(dim);
  for (auto& v : s) v = rng.uniform(-2.0, 2.0);
  return s;
}

// ---------------------------------------------------------------------------
// BatchPolicy: per-row bit-exactness of mean_action_batch vs mean_action.
// ---------------------------------------------------------------------------

void expect_batch_matches_sequential(GaussianPolicy& policy,
                                     std::uint64_t state_seed) {
  Rng rng(state_seed);
  Matrix actions;
  // Batches 1-7 take the GEMM's unpacked direct path (fewer rows than a
  // register tile); 64 runs the hidden layers through packed tiles.
  for (std::size_t batch : {1u, 2u, 3u, 7u, 64u}) {
    Matrix states(batch, policy.state_dim());
    std::vector<std::vector<double>> rows(batch);
    for (std::size_t b = 0; b < batch; ++b) {
      rows[b] = random_state(rng, policy.state_dim());
      for (std::size_t j = 0; j < policy.state_dim(); ++j) {
        states(b, j) = rows[b][j];
      }
    }
    policy.mean_action_batch(states, actions);
    ASSERT_EQ(actions.rows(), batch);
    ASSERT_EQ(actions.cols(), policy.action_dim());
    for (std::size_t b = 0; b < batch; ++b) {
      const auto expect = policy.mean_action(rows[b]);
      for (std::size_t j = 0; j < policy.action_dim(); ++j) {
        // Bitwise: batching must never change a row's result.
        EXPECT_EQ(actions(b, j), expect[j]) << "batch=" << batch << " row="
                                            << b << " j=" << j;
      }
    }
  }
}

TEST(BatchPolicy, GaussianBatchBitIdenticalToSequential) {
  Rng init(3);
  GaussianPolicy policy(kStateDim, kActionDim, small_policy_config(), init);
  expect_batch_matches_sequential(policy, 100);
}

TEST(BatchPolicy, PpoAgentBatchBitIdenticalToSequential) {
  TrainerConfig tc = recommended_trainer_config(1);
  tc.policy.hidden = {16, 16};
  PpoAgent agent(kStateDim, kActionDim, tc.policy, tc.ppo, 7);
  GaussianMeanPolicy adapter(agent.policy());
  Rng rng(300);
  Matrix actions;
  for (std::size_t batch : {1u, 2u, 3u, 7u, 64u}) {
    Matrix states(batch, kStateDim);
    std::vector<std::vector<double>> rows(batch);
    for (std::size_t b = 0; b < batch; ++b) {
      rows[b] = random_state(rng);
      for (std::size_t j = 0; j < kStateDim; ++j) states(b, j) = rows[b][j];
    }
    adapter.mean_action_batch(states, actions);
    for (std::size_t b = 0; b < batch; ++b) {
      const auto expect = agent.mean_action(rows[b]);
      for (std::size_t j = 0; j < kActionDim; ++j) {
        EXPECT_EQ(actions(b, j), expect[j]);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// InferenceEngine: batched concurrent serving is bit-identical to the
// sequential path, across thread-pool sizes and batch caps.
// ---------------------------------------------------------------------------

TEST(InferenceEngine, ConcurrentResultsBitIdenticalToSequential) {
  Rng init(5);
  GaussianPolicy policy(kStateDim, kActionDim, small_policy_config(), init);
  GaussianMeanPolicy adapter(policy);

  constexpr std::size_t kDecisions = 30;
  const std::size_t thread_counts[] = {1, 2, 8};

  // Expected actions are computed sequentially BEFORE any engine exists
  // (the policy is single-caller; an idle batcher never touches it, but
  // this keeps the reference path trivially race-free).
  std::vector<std::vector<std::vector<double>>> states(8);
  std::vector<std::vector<std::vector<double>>> expect(8);
  for (std::size_t t = 0; t < 8; ++t) {
    Rng rng(1000 + t);
    for (std::size_t d = 0; d < kDecisions; ++d) {
      states[t].push_back(random_state(rng));
      expect[t].push_back(policy.mean_action(states[t].back()));
    }
  }

  for (std::size_t max_batch : {1u, 8u, 64u}) {
    for (std::size_t threads : thread_counts) {
      ServeConfig cfg;
      cfg.max_batch = max_batch;
      InferenceEngine engine(adapter, cfg);

      std::vector<std::vector<std::vector<double>>> got(threads);
      std::vector<std::thread> pool;
      for (std::size_t t = 0; t < threads; ++t) {
        pool.emplace_back([&, t] {
          DecideResult res;
          for (std::size_t d = 0; d < kDecisions; ++d) {
            engine.decide(states[t][d], res);
            got[t].push_back(res.ok() ? res.action : std::vector<double>{});
          }
        });
      }
      for (auto& th : pool) th.join();

      for (std::size_t t = 0; t < threads; ++t) {
        ASSERT_EQ(got[t].size(), kDecisions);
        for (std::size_t d = 0; d < kDecisions; ++d) {
          // Vector operator== is element-wise bitwise equality here.
          EXPECT_EQ(got[t][d], expect[t][d])
              << "max_batch=" << max_batch << " threads=" << threads
              << " t=" << t << " d=" << d;
        }
      }
      const auto stats = engine.stats();
      EXPECT_EQ(stats.served, threads * kDecisions);
      EXPECT_EQ(stats.shed, 0u);
      EXPECT_EQ(stats.expired, 0u);
      EXPECT_LE(stats.max_batch_rows, max_batch);
    }
  }
}

TEST(InferenceEngine, BadRequestOnDimensionMismatch) {
  Rng init(6);
  GaussianPolicy policy(kStateDim, kActionDim, small_policy_config(), init);
  GaussianMeanPolicy adapter(policy);
  InferenceEngine engine(adapter, {});

  std::vector<double> wrong(kStateDim + 1, 0.0);
  const auto res = engine.decide(wrong);
  EXPECT_EQ(res.status, DecideStatus::kBadRequest);
  EXPECT_TRUE(res.action.empty());
  EXPECT_EQ(engine.stats().rejected, 1u);
  EXPECT_EQ(engine.stats().admitted, 0u);
}

// ---------------------------------------------------------------------------
// Admission control. GatedPolicy lets a test hold the batcher inside a
// forward pass, making queue states deterministic: requests admitted
// while the gate is closed provably sit in the queue.
// ---------------------------------------------------------------------------

class GatedPolicy final : public serve::BatchPolicy {
 public:
  GatedPolicy(std::size_t state_dim, std::size_t action_dim)
      : state_dim_(state_dim), action_dim_(action_dim) {}

  std::size_t state_dim() const override { return state_dim_; }
  std::size_t action_dim() const override { return action_dim_; }

  void mean_action_batch(const Matrix& states, Matrix& actions) override {
    {
      std::unique_lock lock(mu_);
      if (!open_) {
        entered_ = true;
        cv_.notify_all();
        cv_.wait(lock, [&] { return open_; });
      }
    }
    actions.resize_reuse(states.rows(), action_dim_);
    for (std::size_t b = 0; b < states.rows(); ++b) {
      for (std::size_t j = 0; j < action_dim_; ++j) actions(b, j) = 0.5;
    }
  }

  /// Blocks until the batcher is inside a (gated) forward pass.
  void wait_entered() {
    std::unique_lock lock(mu_);
    cv_.wait(lock, [&] { return entered_; });
  }

  /// Opens the gate permanently; all later forwards run through.
  void release() {
    std::lock_guard lock(mu_);
    open_ = true;
    cv_.notify_all();
  }

 private:
  std::size_t state_dim_;
  std::size_t action_dim_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool entered_ = false;
  bool open_ = false;
};

void wait_for_queue_depth(const InferenceEngine& engine, std::size_t depth) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (engine.queue_depth() < depth) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "queue never reached depth " << depth;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

TEST(InferenceEngineAdmission, FullQueueShedsWithOverloaded) {
  GatedPolicy policy(4, 2);
  ServeConfig cfg;
  cfg.max_batch = 1;
  cfg.max_queue_depth = 2;
  InferenceEngine engine(policy, cfg);

  const std::vector<double> state(4, 1.0);
  DecideResult first, second, third;
  std::thread t1([&] { first = engine.decide(state); });
  policy.wait_entered();  // t1 popped; batcher is stuck in its forward
  std::thread t2([&] { second = engine.decide(state); });
  std::thread t3([&] { third = engine.decide(state); });
  wait_for_queue_depth(engine, 2);

  // Queue is at max_queue_depth: the next arrival is shed immediately,
  // without blocking on the (stalled) batcher.
  const auto shed = engine.decide(state);
  EXPECT_EQ(shed.status, DecideStatus::kOverloaded);
  EXPECT_TRUE(shed.action.empty());
  EXPECT_EQ(engine.stats().shed, 1u);

  policy.release();
  t1.join();
  t2.join();
  t3.join();
  EXPECT_EQ(first.status, DecideStatus::kOk);
  EXPECT_EQ(second.status, DecideStatus::kOk);
  EXPECT_EQ(third.status, DecideStatus::kOk);
  EXPECT_EQ(engine.stats().served, 3u);
}

TEST(InferenceEngineAdmission, ExpiredDeadlineGetsTypedError) {
  GatedPolicy policy(4, 2);
  ServeConfig cfg;
  cfg.max_batch = 4;
  InferenceEngine engine(policy, cfg);

  const std::vector<double> state(4, 1.0);
  DecideResult blocked, expired;
  std::thread t1([&] { blocked = engine.decide(state); });
  policy.wait_entered();
  // 500us deadline, then guaranteed >=20ms of queue wait while the
  // batcher is held inside t1's forward.
  std::thread t2([&] { expired = engine.decide(state, /*deadline_us=*/500.0); });
  wait_for_queue_depth(engine, 1);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));

  policy.release();
  t1.join();
  t2.join();
  EXPECT_EQ(blocked.status, DecideStatus::kOk);
  EXPECT_EQ(expired.status, DecideStatus::kDeadlineExceeded);
  EXPECT_TRUE(expired.action.empty());
  EXPECT_GT(expired.queue_wait_us, 500.0);
  EXPECT_EQ(engine.stats().expired, 1u);
}

TEST(InferenceEngineAdmission, ShutdownRefusesNewWorkAndDrainsAdmitted) {
  GatedPolicy policy(4, 2);
  ServeConfig cfg;
  cfg.max_batch = 1;
  InferenceEngine engine(policy, cfg);

  const std::vector<double> state(4, 1.0);
  DecideResult in_flight, queued;
  std::thread t1([&] { in_flight = engine.decide(state); });
  policy.wait_entered();
  std::thread t2([&] { queued = engine.decide(state); });
  wait_for_queue_depth(engine, 1);

  // stop() blocks until the batcher drains, so it rides its own thread;
  // new arrivals are refused as soon as accepting() drops.
  std::thread stopper([&] { engine.stop(); });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (engine.accepting()) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const auto refused = engine.decide(state);
  EXPECT_EQ(refused.status, DecideStatus::kShutdown);
  EXPECT_GE(engine.stats().rejected, 1u);

  policy.release();
  stopper.join();
  t1.join();
  t2.join();
  // Drain guarantee: everything admitted before stop() was still served.
  EXPECT_EQ(in_flight.status, DecideStatus::kOk);
  EXPECT_EQ(queued.status, DecideStatus::kOk);
  EXPECT_EQ(engine.stats().served, 2u);

  engine.stop();  // idempotent
  EXPECT_EQ(engine.decide(state).status, DecideStatus::kShutdown);
}

TEST(InferenceEngine, ZeroTensorAllocsInSteadyState) {
  Rng init(8);
  GaussianPolicy policy(kStateDim, kActionDim, small_policy_config(), init);
  GaussianMeanPolicy adapter(policy);
  InferenceEngine engine(adapter, {});

  Rng rng(400);
  const auto state = random_state(rng);
  DecideResult res;
  for (int k = 0; k < 10; ++k) engine.decide(state, res);  // warm capacities

  const auto before = tensor_alloc_stats();
  for (int k = 0; k < 50; ++k) {
    engine.decide(state, res);
    ASSERT_TRUE(res.ok());
  }
  const auto after = tensor_alloc_stats();
  EXPECT_EQ(after.allocs, before.allocs);
  EXPECT_EQ(after.bytes, before.bytes);
}

// ---------------------------------------------------------------------------
// SessionManager: deterministic multiplexing.
// ---------------------------------------------------------------------------

struct SessionFixture {
  Rng init{9};
  GaussianPolicy policy{kStateDim, kActionDim, small_policy_config(), init};
  GaussianMeanPolicy adapter{policy};
  InferenceEngine engine{adapter, {}};
};

TEST(SessionManager, SequentialIdsAndSeedsAreDeterministic) {
  SessionFixture f;
  SessionManager a(f.engine, /*base_seed=*/17);
  SessionManager b(f.engine, /*base_seed=*/17);
  SessionManager c(f.engine, /*base_seed=*/18);
  for (std::uint64_t want = 1; want <= 3; ++want) {
    EXPECT_EQ(a.open(), want);
    EXPECT_EQ(b.open(), want);
    EXPECT_EQ(c.open(), want);
    // Seeds are a pure function of (base_seed, id): identical across
    // managers with the same base, distinct across bases.
    EXPECT_NE(a.info(want).seed, 0u);
    EXPECT_EQ(a.info(want).seed, b.info(want).seed);
    EXPECT_NE(a.info(want).seed, c.info(want).seed);
  }
  EXPECT_EQ(a.active(), 3u);
}

TEST(SessionManager, UnknownSessionFailsWithoutTouchingEngine) {
  SessionFixture f;
  SessionManager sessions(f.engine);
  Rng rng(500);
  const auto res = sessions.decide(99, random_state(rng));
  EXPECT_EQ(res.status, DecideStatus::kBadRequest);
  EXPECT_EQ(f.engine.stats().admitted, 0u);
  EXPECT_EQ(f.engine.stats().rejected, 0u);
}

TEST(SessionManager, CloseRemovesSession) {
  SessionFixture f;
  SessionManager sessions(f.engine);
  const auto id = sessions.open();
  EXPECT_EQ(sessions.active(), 1u);
  EXPECT_TRUE(sessions.close(id));
  EXPECT_FALSE(sessions.close(id));
  EXPECT_EQ(sessions.active(), 0u);
  Rng rng(501);
  EXPECT_EQ(sessions.decide(id, random_state(rng)).status,
            DecideStatus::kBadRequest);
}

TEST(SessionManager, DecisionCountersTrackOutcomes) {
  SessionFixture f;
  SessionManager sessions(f.engine);
  const auto id = sessions.open();
  Rng rng(502);
  const auto state = random_state(rng);
  EXPECT_TRUE(sessions.decide(id, state).ok());
  EXPECT_TRUE(sessions.decide(id, state).ok());
  EXPECT_EQ(sessions.info(id).decisions, 2u);
  EXPECT_EQ(sessions.info(id).failures, 0u);
}

}  // namespace
}  // namespace fedra
