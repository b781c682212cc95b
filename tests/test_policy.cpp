#include "rl/policy.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "nn/optimizer.hpp"
#include "tensor/serialize.hpp"
#include "util/rng.hpp"

namespace fedra {
namespace {

constexpr double kLog2Pi = 1.8378770664093453;

GaussianPolicy make_policy(std::size_t sdim = 4, std::size_t adim = 2,
                           std::uint64_t seed = 1) {
  PolicyConfig cfg;
  cfg.hidden = {8};
  Rng rng(seed);
  return GaussianPolicy(sdim, adim, cfg, rng);
}

// Writes every parameter of `from` in the checkpoint's matrix framing and
// reads them into `to`: params() must carry all the policy's state.
void round_trip_params(GaussianPolicy& from, GaussianPolicy& to) {
  ByteWriter w;
  for (Matrix* p : from.params()) w.put_matrix(*p);
  ByteReader r(w.bytes());
  for (Matrix* p : to.params()) *p = r.get_matrix();
  EXPECT_TRUE(r.at_end());
}

TEST(Policy, ActionIsSigmoidOfPreSquash) {
  auto p = make_policy();
  Rng rng(2);
  std::vector<double> state{0.1, -0.2, 0.3, 0.4};
  auto s = p.act(state, rng);
  ASSERT_EQ(s.action.size(), 2u);
  for (std::size_t j = 0; j < 2; ++j) {
    EXPECT_NEAR(s.action[j], 1.0 / (1.0 + std::exp(-s.action_u[j])), 1e-12);
    EXPECT_GT(s.action[j], 0.0);
    EXPECT_LT(s.action[j], 1.0);
  }
}

TEST(Policy, LogProbMatchesGaussianFormula) {
  auto p = make_policy(3, 2, 5);
  Rng rng(6);
  std::vector<double> state{0.5, 0.5, 0.5};
  auto s = p.act(state, rng);
  // Recompute manually: mean from a fresh forward, sigma from log_std.
  Matrix states = Matrix::row_vector(state);
  Matrix actions(1, 2);
  actions(0, 0) = s.action_u[0];
  actions(0, 1) = s.action_u[1];
  std::vector<double> logps;
  p.log_probs(states, actions, 1, logps);
  EXPECT_NEAR(logps[0], s.log_prob, 1e-10);
}

TEST(Policy, LogProbPeaksAtMean) {
  auto p = make_policy(2, 1, 7);
  std::vector<double> state{1.0, -1.0};
  // The mean action in u-space maximizes log-prob.
  Matrix states = Matrix::row_vector(state);
  auto mean_a = p.mean_action(state);
  const double u_mean = std::log(mean_a[0] / (1.0 - mean_a[0]));
  Matrix at_mean(1, 1, u_mean);
  Matrix off_mean(1, 1, u_mean + 1.0);
  std::vector<double> at, off;
  p.log_probs(states, at_mean, 1, at);
  p.log_probs(states, off_mean, 1, off);
  EXPECT_GT(at[0], off[0]);
}

TEST(Policy, MeanActionDeterministic) {
  auto p = make_policy();
  std::vector<double> state{0.0, 1.0, 2.0, 3.0};
  EXPECT_EQ(p.mean_action(state), p.mean_action(state));
}

TEST(Policy, EntropyMatchesClosedForm) {
  auto p = make_policy(2, 3, 8);
  // Fresh policy: log_std = init everywhere.
  PolicyConfig cfg;
  const double expected =
      3.0 * (cfg.init_log_std + 0.5 * (kLog2Pi + 1.0));
  EXPECT_NEAR(p.entropy(), expected, 1e-12);
}

TEST(Policy, BackwardLogProbsMatchesNumericGradient) {
  // Check d(sum_b coeff_b logp_b - entropy_coeff * H)/d theta for EVERY
  // parameter against central differences — validates the hand-derived
  // policy gradient, with and without the state-independent entropy term.
  for (const double entropy_coeff : {0.0, 0.3}) {
    auto p = make_policy(3, 2, 9);
    Rng rng(10);
    const std::size_t batch = 5;
    Matrix states = Matrix::random_gaussian(batch, 3, rng);
    Matrix actions = Matrix::random_gaussian(batch, 2, rng, 0.0, 0.7);
    std::vector<double> coeff{0.5, -1.0, 2.0, 0.1, -0.3};

    std::vector<double> logps;
    auto objective = [&] {
      p.log_probs(states, actions, batch, logps);
      double acc = 0.0;
      for (std::size_t b = 0; b < batch; ++b) acc += coeff[b] * logps[b];
      return acc - entropy_coeff * p.entropy();
    };

    p.zero_grad();
    p.forward_log_probs(states, actions, logps);
    p.backward_log_probs(states, actions, coeff, entropy_coeff);

    auto params = p.params();
    auto grads = p.grads();
    double worst = 0.0;
    const double eps = 1e-6;
    for (std::size_t pi = 0; pi < params.size(); ++pi) {
      for (std::size_t j = 0; j < params[pi]->size(); ++j) {
        double& w = (*params[pi])[j];
        const double orig = w;
        w = orig + eps;
        const double up = objective();
        w = orig - eps;
        const double down = objective();
        w = orig;
        const double numeric = (up - down) / (2 * eps);
        const double analytic = (*grads[pi])[j];
        const double denom =
            std::max({std::abs(numeric), std::abs(analytic), 1e-8});
        worst = std::max(worst, std::abs(numeric - analytic) / denom);
      }
    }
    EXPECT_LT(worst, 1e-5) << "entropy_coeff=" << entropy_coeff;
  }
}

TEST(Policy, ClampLogStdEnforcesBounds) {
  auto p = make_policy(2, 3, 12);
  // Push log_std past both bounds through its parameter pointer; the
  // in-range entry must stay put.
  Matrix* log_std = p.params().back();
  (*log_std)[0] = GaussianPolicy::kMaxLogStd + 4.0;
  (*log_std)[1] = GaussianPolicy::kMinLogStd - 4.0;
  (*log_std)[2] = -1.0;
  p.clamp_log_std();
  EXPECT_EQ(p.log_std()[0], GaussianPolicy::kMaxLogStd);
  EXPECT_EQ(p.log_std()[1], GaussianPolicy::kMinLogStd);
  EXPECT_EQ(p.log_std()[2], -1.0);
}

TEST(Policy, CopyParamsMakesPoliciesAgree) {
  auto a = make_policy(3, 2, 13);
  auto b = make_policy(3, 2, 14);
  std::vector<double> state{0.2, 0.4, 0.6};
  EXPECT_NE(a.mean_action(state), b.mean_action(state));
  b.copy_params_from(a);
  EXPECT_EQ(a.mean_action(state), b.mean_action(state));
}

TEST(Policy, SaveLoadRoundTrip) {
  auto a = make_policy(3, 2, 15);
  auto b = make_policy(3, 2, 16);
  round_trip_params(a, b);
  std::vector<double> state{1.0, 2.0, 3.0};
  EXPECT_EQ(a.mean_action(state), b.mean_action(state));
}

TEST(Policy, TrainableTowardTarget) {
  // Supervised sanity check: pushing log-prob of a fixed u at a fixed
  // state should move the policy mean toward u.
  auto p = make_policy(2, 1, 17);
  Adam opt(p.params(), p.grads(), 0.05);
  Matrix states(1, 2, 0.5);
  Matrix target_u(1, 1, 1.2);
  const double before_mean =
      std::log(p.mean_action({0.5, 0.5})[0] /
               (1.0 - p.mean_action({0.5, 0.5})[0]));
  std::vector<double> logps;
  for (int it = 0; it < 200; ++it) {
    p.zero_grad();
    p.forward_log_probs(states, target_u, logps);
    p.backward_log_probs(states, target_u, {-1.0});  // maximize logp
    opt.step();
    p.clamp_log_std();
  }
  const double after = p.mean_action({0.5, 0.5})[0];
  const double after_u = std::log(after / (1.0 - after));
  EXPECT_LT(std::abs(after_u - 1.2), std::abs(before_mean - 1.2));
  EXPECT_NEAR(after_u, 1.2, 0.3);
}

TEST(Policy, BlockedLogProbsMatchOnePass) {
  // The blocked pass (PPO's post-update KL pass) must reproduce one
  // unblocked pass bit for bit.
  auto p = make_policy(3, 2, 41);
  Rng rng(42);
  const Matrix states = Matrix::random_gaussian(10, 3, rng);
  const Matrix actions = Matrix::random_gaussian(10, 2, rng, 0.0, 0.7);
  std::vector<double> whole;
  p.log_probs(states, actions, states.rows(), whole);
  for (std::size_t block : {1, 3, 4, 9, 64}) {
    std::vector<double> blocked;
    p.log_probs(states, actions, block, blocked);
    EXPECT_EQ(blocked, whole) << "block " << block;
  }
}

TEST(Policy, SamplingRespectsStd) {
  auto p = make_policy(2, 1, 18);
  Rng rng(19);
  std::vector<double> state{0.0, 0.0};
  const auto mean_u = [&] {
    auto a = p.mean_action(state)[0];
    return std::log(a / (1.0 - a));
  }();
  double acc = 0.0, sq = 0.0;
  const int n = 5000;
  for (int i = 0; i < n; ++i) {
    auto s = p.act(state, rng);
    acc += s.action_u[0];
    sq += s.action_u[0] * s.action_u[0];
  }
  const double emp_mean = acc / n;
  const double emp_std = std::sqrt(sq / n - emp_mean * emp_mean);
  EXPECT_NEAR(emp_mean, mean_u, 0.05);
  PolicyConfig cfg;
  EXPECT_NEAR(emp_std, std::exp(cfg.init_log_std), 0.05);
}

}  // namespace
}  // namespace fedra
