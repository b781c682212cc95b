// Workspace-path correctness: Sequential's cached (allocation-free, pair-
// fused) forward and backward passes must be BIT-IDENTICAL to a plain loop
// of per-layer forward_into/backward_into calls over test-owned buffers —
// same outputs, same accumulated parameter gradients — for every layer
// kind, and a warm steady-state pass must perform zero tracked heap
// allocations.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <vector>

#include "nn/activations.hpp"
#include "nn/dense.hpp"
#include "nn/loss.hpp"
#include "nn/mlp.hpp"
#include "nn/workspace.hpp"
#include "tensor/ops.hpp"
#include "util/rng.hpp"

namespace fedra {
namespace {

::testing::AssertionResult bitwise_equal(const Matrix& a, const Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) {
    return ::testing::AssertionFailure()
           << "shape mismatch: " << a.rows() << "x" << a.cols() << " vs "
           << b.rows() << "x" << b.cols();
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::bit_cast<std::uint64_t>(a[i]) !=
        std::bit_cast<std::uint64_t>(b[i])) {
      return ::testing::AssertionFailure()
             << "element " << i << ": " << a[i] << " vs " << b[i];
    }
  }
  return ::testing::AssertionSuccess();
}

/// A network exercising every layer kind (Dense + both activations).
Sequential make_zoo(std::uint64_t seed) {
  Rng rng(seed);
  Sequential net;
  net.add(std::make_unique<Dense>(6, 12, rng));
  net.add(std::make_unique<ReLU>());
  net.add(std::make_unique<Dense>(12, 10, rng));
  net.add(std::make_unique<Tanh>());
  net.add(std::make_unique<Dense>(10, 8, rng));
  net.add(std::make_unique<ReLU>());
  net.add(std::make_unique<Dense>(8, 5, rng));
  return net;
}

/// A network whose bottom layer is an activation, so the cached backward
/// runs that layer's backward_into instead of a Dense's parameter-only
/// step.
Sequential make_activation_bottom(std::uint64_t seed) {
  Rng rng(seed);
  Sequential net;
  net.add(std::make_unique<ReLU>());
  net.add(std::make_unique<Dense>(6, 9, rng));
  net.add(std::make_unique<Tanh>());
  net.add(std::make_unique<Dense>(9, 4, rng));
  return net;
}

/// The oracle: every layer's forward_into/backward_into in turn, over
/// buffers the test owns (one per layer, sized up front so the addresses
/// the layers cache stay put). No fusion, no workspace.
struct PerLayerPass {
  explicit PerLayerPass(std::size_t layers) : outs(layers), grads(layers) {}

  const Matrix& forward(Sequential& net, const Matrix& x) {
    const Matrix* cur = &x;
    for (std::size_t i = 0; i < net.num_layers(); ++i) {
      net.layer(i).forward_into(*cur, outs[i]);
      cur = &outs[i];
    }
    return *cur;
  }

  void backward(Sequential& net, const Matrix& g) {
    const Matrix* cur = &g;
    for (std::size_t k = net.num_layers(); k-- > 0;) {
      net.layer(k).backward_into(*cur, grads[k]);
      cur = &grads[k];
    }
  }

  std::vector<Matrix> outs;
  std::vector<Matrix> grads;
};

/// Runs `steps` zero_grad/forward/backward rounds through two identically
/// seeded nets — the cached passes on one, the per-layer oracle on the
/// other — and checks outputs and parameter gradients bitwise.
void expect_cached_matches_oracle(const std::function<Sequential()>& make,
                                  std::size_t batch, std::size_t in,
                                  std::size_t out, std::uint64_t seed,
                                  int steps) {
  Sequential cached = make();
  Sequential oracle = make();
  Workspace ws;
  PerLayerPass pass(oracle.num_layers());
  Rng rng(seed);
  for (int step = 0; step < steps; ++step) {
    const Matrix x = Matrix::random_gaussian(batch, in, rng);
    const Matrix g = Matrix::random_gaussian(batch, out, rng);

    cached.zero_grad();
    const Matrix& out_cached = cached.forward_cached(x, ws);
    oracle.zero_grad();
    const Matrix& out_oracle = pass.forward(oracle, x);
    EXPECT_TRUE(bitwise_equal(out_cached, out_oracle)) << "step " << step;

    cached.backward_cached(g, ws);
    pass.backward(oracle, g);

    auto gc = cached.grads();
    auto go = oracle.grads();
    ASSERT_EQ(gc.size(), go.size());
    for (std::size_t i = 0; i < gc.size(); ++i) {
      EXPECT_TRUE(bitwise_equal(*gc[i], *go[i]))
          << "grad " << i << " step " << step;
    }
  }
}

TEST(Workspace, CachedPassMatchesPerLayerOracle) {
  // Every layer kind, ReLU unfused, Tanh fused with the Dense before it.
  expect_cached_matches_oracle([] { return make_zoo(7); }, 9, 6, 5, 11, 3);

  // An activation at the bottom: the one layer-0 kind that is not a Dense.
  expect_cached_matches_oracle([] { return make_activation_bottom(13); }, 6,
                               6, 4, 14, 2);

  // Fused Dense+Tanh pairs, one of them the top of the net, over prime
  // and degenerate shapes that straddle the GEMM and SIMD tiles.
  struct Shape {
    std::size_t batch, in, hidden, out;
  };
  const Shape shapes[] = {
      {1, 1, 1, 1}, {1, 3, 5, 2}, {7, 13, 11, 3}, {17, 8, 16, 4},
      {3, 31, 29, 7},
  };
  for (const Shape& sh : shapes) {
    auto make = [&]() -> Sequential {
      Rng rng(1234);
      Sequential net;
      net.add(std::make_unique<Dense>(sh.in, sh.hidden, rng));
      net.add(std::make_unique<Tanh>());
      net.add(std::make_unique<Dense>(sh.hidden, sh.out, rng));
      net.add(std::make_unique<Tanh>());
      return net;
    };
    expect_cached_matches_oracle(make, sh.batch, sh.in, sh.out, 4321, 2);
  }

  // A lone Dense: the bottom layer is unfused and is also the top one.
  auto make_linear = []() -> Sequential {
    Rng rng(77);
    return Mlp({7, 3}, Activation::None, rng);
  };
  expect_cached_matches_oracle(make_linear, 5, 7, 3, 78, 2);
}

TEST(Workspace, TwoBackwardsAccumulateTwiceOnePass) {
  // Parameter gradients accumulate across backward calls (federated
  // minibatch averaging relies on it): two identical passes after a
  // zero_grad must leave exactly twice the gradient of one.
  Sequential once = make_zoo(3);
  Sequential twice = make_zoo(3);
  Rng rng(5);
  const Matrix x = Matrix::random_gaussian(4, 6, rng);
  const Matrix g = Matrix::random_gaussian(4, 5, rng);
  Workspace ws_once;
  Workspace ws_twice;
  once.zero_grad();
  once.forward_cached(x, ws_once);
  once.backward_cached(g, ws_once);
  twice.zero_grad();
  for (int pass = 0; pass < 2; ++pass) {
    twice.forward_cached(x, ws_twice);
    twice.backward_cached(g, ws_twice);
  }
  auto g1 = once.grads();
  auto g2 = twice.grads();
  ASSERT_EQ(g1.size(), g2.size());
  for (std::size_t i = 0; i < g1.size(); ++i) {
    Matrix doubled = *g1[i];
    doubled *= 2.0;
    EXPECT_TRUE(bitwise_equal(*g2[i], doubled)) << "grad " << i;
  }
}

TEST(Workspace, SteadyStatePassIsAllocationFree) {
  Rng rng(29);
  Mlp net({16, 32, 32, 4}, Activation::ReLU, rng);
  Workspace ws;
  const Matrix x = Matrix::random_gaussian(8, 16, rng);
  const Matrix g = Matrix::random_gaussian(8, 4, rng);
  // Warm up: first passes size the workspace buffers and layer scratch.
  for (int i = 0; i < 2; ++i) {
    net.zero_grad();
    net.forward_cached(x, ws);
    net.backward_cached(g, ws);
  }
  const TensorAllocStats before = tensor_alloc_stats();
  for (int i = 0; i < 5; ++i) {
    net.zero_grad();
    net.forward_cached(x, ws);
    net.backward_cached(g, ws);
  }
  const TensorAllocStats after = tensor_alloc_stats();
  EXPECT_EQ(after.bytes, before.bytes);
  EXPECT_EQ(after.allocs, before.allocs);
}

TEST(Workspace, DenseForwardIntoDoesNotCopyInput) {
  // The workspace contract lets Dense cache a pointer instead of deep-
  // copying its input: with warm buffers, forward_into + backward_into
  // must not touch the tracked heap at all.
  Rng rng(31);
  Dense layer(64, 64, rng);
  const Matrix x = Matrix::random_gaussian(32, 64, rng);
  const Matrix g = Matrix::random_gaussian(32, 64, rng);
  Matrix out;
  Matrix gin;
  layer.forward_into(x, out);  // sizes out/scratch
  layer.backward_into(g, gin);
  const TensorAllocStats before = tensor_alloc_stats();
  layer.forward_into(x, out);
  layer.backward_into(g, gin);
  const TensorAllocStats after = tensor_alloc_stats();
  EXPECT_EQ(after.bytes, before.bytes);

  // Sanity: backward read the cached input pointer, so dW = x^T g.
  layer.zero_grad();
  layer.forward_into(x, out);
  layer.backward_into(g, gin);
  Matrix dw;
  matmul_at_b_into(x, g, dw);
  EXPECT_TRUE(bitwise_equal(*layer.grads()[0], dw));
}

TEST(Workspace, SlotAddressesAreStable) {
  Workspace ws;
  Matrix* first = &ws.slot(0);
  Matrix* grad0 = &ws.grad(0);
  for (std::size_t i = 1; i < 40; ++i) {
    ws.slot(i);
    ws.grad(i % 2);
  }
  EXPECT_EQ(&ws.slot(0), first);
  EXPECT_EQ(&ws.grad(0), grad0);
  EXPECT_EQ(ws.num_slots(), 40u);
}

TEST(Workspace, LossIntoMatchesLegacy) {
  Rng rng(37);
  const Matrix logits = Matrix::random_gaussian(6, 4, rng);
  const std::vector<std::size_t> labels = {0, 3, 1, 2, 3, 0};
  const LossResult legacy = softmax_cross_entropy(logits, labels);
  LossResult into;
  softmax_cross_entropy_into(logits, labels, into);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(into.value),
            std::bit_cast<std::uint64_t>(legacy.value));
  EXPECT_TRUE(bitwise_equal(into.grad, legacy.grad));
}

// Cached forward/backward passes must fully overwrite everything they
// read: warm a workspace at batch 8, poison every buffer with NaN/±inf,
// then run batch 3 — the result must match a pristine workspace bit for
// bit. A PPO update relies on this: its ragged tail minibatch reuses the
// critic and actor workspaces that earlier, larger minibatches warmed.
TEST(Workspace, PoisonedPaddingDoesNotLeak) {
  auto make_net = [] {
    Rng rng(17);
    return Mlp({5, 11, 3}, Activation::Tanh, rng);
  };
  Mlp warm_net = make_net();
  Mlp fresh_net = make_net();

  Rng data_rng(19);
  Matrix big(8, 5);
  for (std::size_t i = 0; i < big.size(); ++i) {
    big.data()[i] = data_rng.uniform(-1.0, 1.0);
  }
  Matrix input(3, 5);
  for (std::size_t i = 0; i < input.size(); ++i) {
    input.data()[i] = data_rng.uniform(-1.0, 1.0);
  }
  Matrix grad_out(3, 3);
  for (std::size_t i = 0; i < grad_out.size(); ++i) {
    grad_out.data()[i] = data_rng.uniform(-1.0, 1.0);
  }
  Matrix big_grad(8, 3, 0.25);

  Workspace warm_ws;
  warm_net.forward_cached(big, warm_ws);
  warm_net.backward_cached(big_grad, warm_ws);
  warm_net.zero_grad();

  // Poison the warmed buffers: alternating NaN / +inf / -inf.
  const double poisons[3] = {std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity()};
  for (std::size_t s = 0; s < warm_ws.num_slots(); ++s) {
    Matrix& m = warm_ws.slot(s);
    for (std::size_t i = 0; i < m.size(); ++i) m.data()[i] = poisons[i % 3];
  }
  for (std::size_t g = 0; g < 2; ++g) {
    Matrix& m = warm_ws.grad(g);
    for (std::size_t i = 0; i < m.size(); ++i) m.data()[i] = poisons[i % 3];
  }

  Workspace fresh_ws;
  const Matrix& warm_out = warm_net.forward_cached(input, warm_ws);
  const Matrix& fresh_out = fresh_net.forward_cached(input, fresh_ws);
  EXPECT_TRUE(bitwise_equal(warm_out, fresh_out)) << "forward output";

  warm_net.backward_cached(grad_out, warm_ws);
  fresh_net.backward_cached(grad_out, fresh_ws);

  auto wg = warm_net.grads();
  auto fg = fresh_net.grads();
  ASSERT_EQ(wg.size(), fg.size());
  for (std::size_t i = 0; i < wg.size(); ++i) {
    EXPECT_TRUE(bitwise_equal(*wg[i], *fg[i])) << "param gradient " << i;
  }
}

}  // namespace
}  // namespace fedra
