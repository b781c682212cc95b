// Workspace-path correctness: the cached (allocation-free) forward and
// backward passes must be BIT-IDENTICAL to the legacy allocating paths —
// same outputs, same input gradients, same accumulated parameter
// gradients — for every layer kind, and a warm steady-state pass must
// perform zero tracked heap allocations.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <memory>

#include "nn/activations.hpp"
#include "nn/dense.hpp"
#include "nn/loss.hpp"
#include "nn/mlp.hpp"
#include "nn/workspace.hpp"
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

/// A network exercising every layer kind (Dense + all five activations).
Sequential make_zoo(std::uint64_t seed) {
  Rng rng(seed);
  Sequential net;
  net.add(std::make_unique<Dense>(6, 12, rng));
  net.add(std::make_unique<ReLU>());
  net.add(std::make_unique<Dense>(12, 10, rng));
  net.add(std::make_unique<LeakyReLU>(0.05));
  net.add(std::make_unique<Dense>(10, 8, rng));
  net.add(std::make_unique<Tanh>());
  net.add(std::make_unique<Dense>(8, 8, rng));
  net.add(std::make_unique<Sigmoid>());
  net.add(std::make_unique<Dense>(8, 5, rng));
  net.add(std::make_unique<Softmax>());
  return net;
}

TEST(Workspace, CachedPassBitIdenticalToLegacy) {
  Sequential legacy = make_zoo(7);
  Sequential cached = make_zoo(7);  // same seed -> identical weights
  Rng rng(11);
  Workspace ws;
  for (int step = 0; step < 3; ++step) {
    const Matrix x = Matrix::random_gaussian(9, 6, rng);
    const Matrix g = Matrix::random_gaussian(9, 5, rng);

    legacy.zero_grad();
    const Matrix out_legacy = legacy.forward(x);
    const Matrix gin_legacy = legacy.backward(g);

    cached.zero_grad();
    const Matrix& out_cached = cached.forward_cached(x, ws);
    const Matrix& gin_cached = cached.backward_cached(g, ws);

    EXPECT_TRUE(bitwise_equal(out_cached, out_legacy)) << "step " << step;
    EXPECT_TRUE(bitwise_equal(gin_cached, gin_legacy)) << "step " << step;
    auto gl = legacy.grads();
    auto gc = cached.grads();
    ASSERT_EQ(gl.size(), gc.size());
    for (std::size_t i = 0; i < gl.size(); ++i) {
      EXPECT_TRUE(bitwise_equal(*gc[i], *gl[i]))
          << "grad " << i << " step " << step;
    }
  }
}

TEST(Workspace, GradientAccumulationMatchesLegacy) {
  // Parameter gradients accumulate across backward calls (federated
  // minibatch averaging relies on it); the scratch-then-add workspace
  // path must produce the same accumulated bits.
  Sequential legacy = make_zoo(3);
  Sequential cached = make_zoo(3);
  Rng rng(5);
  Workspace ws;
  legacy.zero_grad();
  cached.zero_grad();
  for (int pass = 0; pass < 3; ++pass) {
    const Matrix x = Matrix::random_gaussian(4, 6, rng);
    const Matrix g = Matrix::random_gaussian(4, 5, rng);
    legacy.forward(x);
    legacy.backward(g);
    cached.forward_cached(x, ws);
    cached.backward_cached(g, ws);
  }
  auto gl = legacy.grads();
  auto gc = cached.grads();
  for (std::size_t i = 0; i < gl.size(); ++i) {
    EXPECT_TRUE(bitwise_equal(*gc[i], *gl[i])) << "grad " << i;
  }
}

TEST(Workspace, ReuseToggleFallsBackBitIdentically) {
  Sequential a = make_zoo(19);
  Sequential b = make_zoo(19);
  Rng rng(23);
  const Matrix x = Matrix::random_gaussian(5, 6, rng);
  const Matrix g = Matrix::random_gaussian(5, 5, rng);
  Workspace ws_on;
  Workspace ws_off;

  ASSERT_TRUE(workspace_reuse_enabled());  // default is on
  a.zero_grad();
  const Matrix out_on = a.forward_cached(x, ws_on);
  const Matrix gin_on = a.backward_cached(g, ws_on);

  set_workspace_reuse(false);
  b.zero_grad();
  const Matrix out_off = b.forward_cached(x, ws_off);
  const Matrix gin_off = b.backward_cached(g, ws_off);
  set_workspace_reuse(true);

  EXPECT_TRUE(bitwise_equal(out_off, out_on));
  EXPECT_TRUE(bitwise_equal(gin_off, gin_on));
  auto ga = a.grads();
  auto gb = b.grads();
  for (std::size_t i = 0; i < ga.size(); ++i) {
    EXPECT_TRUE(bitwise_equal(*gb[i], *ga[i])) << "grad " << i;
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
  // must not touch the tracked heap at all, whereas the legacy forward()
  // copies the input into layer-owned storage.
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

  // Sanity: the pointer-cached path computes the same bits as legacy.
  Rng rng2(31);
  Dense fresh(64, 64, rng2);
  fresh.zero_grad();
  layer.zero_grad();
  const Matrix out_legacy = fresh.forward(x);
  const Matrix gin_legacy = fresh.backward(g);
  layer.forward_into(x, out);
  layer.backward_into(g, gin);
  EXPECT_TRUE(bitwise_equal(out, out_legacy));
  EXPECT_TRUE(bitwise_equal(gin, gin_legacy));
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

  const Matrix& warm_gin = warm_net.backward_cached(grad_out, warm_ws);
  const Matrix& fresh_gin = fresh_net.backward_cached(grad_out, fresh_ws);
  EXPECT_TRUE(bitwise_equal(warm_gin, fresh_gin)) << "input gradient";

  auto wg = warm_net.grads();
  auto fg = fresh_net.grads();
  ASSERT_EQ(wg.size(), fg.size());
  for (std::size_t i = 0; i < wg.size(); ++i) {
    EXPECT_TRUE(bitwise_equal(*wg[i], *fg[i])) << "param gradient " << i;
  }
}

}  // namespace
}  // namespace fedra
