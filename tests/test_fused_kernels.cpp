// Oracle wall for the fused/vectorized activation kernels (nn/fused.hpp):
// the SIMD tanh map must be bitwise-equal to its scalar reference on every
// lane — including tile-straddling lengths, degenerate and prime shapes,
// NaN/±0/denormal/saturation inputs — and the plain-loop maps keep their
// exact NaN / signed-zero / denormal results. (That Sequential's pair
// fusion matches the per-layer passes is checked in test_workspace.cpp.)
#include "nn/fused.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "tensor/ops.hpp"
#include "util/rng.hpp"

namespace fedra {
namespace {

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

// Lengths that stop mid-lane for both 4-wide (AVX2) and 8-wide (AVX-512)
// kernels, plus degenerate and prime sizes.
const std::size_t kLengths[] = {0, 1, 2, 3, 4, 5, 7, 8, 9,
                                13, 16, 17, 31, 32, 33, 61, 64, 67, 127};

// Inputs that exercise every special path: clamps, saturation, signed
// zero, denormals, infinities, NaN — then a dense random fill.
std::vector<double> adversarial_inputs(std::size_t n, std::uint64_t seed) {
  const double specials[] = {
      0.0,
      -0.0,
      1.0,
      -1.0,
      1e-308,
      -1e-308,
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      709.0,
      710.0,
      -745.0,
      -746.0,
      1000.0,
      -1000.0,
      19.0,
      19.0625,
      19.1,
      -19.1,
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::quiet_NaN(),
      std::numeric_limits<double>::max(),
      std::numeric_limits<double>::lowest(),
  };
  std::vector<double> v(n);
  Rng rng(seed);
  const std::size_t num_specials = sizeof(specials) / sizeof(specials[0]);
  for (std::size_t i = 0; i < n; ++i) {
    if (i < num_specials) {
      v[i] = specials[i];
    } else {
      v[i] = rng.uniform(-30.0, 30.0);
    }
  }
  return v;
}

void expect_lanes_equal(const std::vector<double>& got,
                        const std::vector<double>& want, const char* what,
                        std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(bits(got[i]), bits(want[i]))
        << what << " lane " << i << " of " << n << " (x bits mismatch: got "
        << got[i] << " want " << want[i] << ")";
  }
}

TEST(FusedKernels, TanhMatchesReferenceEveryLane) {
  for (std::size_t n : kLengths) {
    auto x = adversarial_inputs(n, 200 + n);
    std::vector<double> got(n), want(n);
    fast_tanh_map(x.data(), got.data(), n);
    for (std::size_t i = 0; i < n; ++i) want[i] = fast_tanh_reference(x[i]);
    expect_lanes_equal(got, want, "fast_tanh", n);
  }
}

// Exact result bits of the plain-loop maps at the edges: NaN, signed zero,
// denormals and saturated outputs. Every lane of a 13-long array holds the
// edge input, so a loop the compiler vectorizes is checked in its vector
// body and its scalar tail alike.
TEST(FusedKernels, PlainMapsKeepEdgeSemantics) {
  constexpr std::size_t n = 13;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double tiny = std::numeric_limits<double>::denorm_min();
  std::vector<double> g(n), out(n);
  for (std::size_t i = 0; i < n; ++i) {
    g[i] = (i % 2 == 0 ? 0.25 : -0.5) * static_cast<double>(i + 1);
  }
  auto filled = [](double v) { return std::vector<double>(n, v); };
  auto expect_lanes = [&](const char* what, auto want) {
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(bits(out[i]), bits(want(i))) << what << " lane " << i;
    }
  };
  auto expect_nan = [&](const char* what) {
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_TRUE(std::isnan(out[i])) << what << " lane " << i;
    }
  };

  relu_map(filled(-0.0).data(), out.data(), n);
  expect_lanes("relu(-0)", [](std::size_t) { return 0.0; });
  relu_map(filled(nan).data(), out.data(), n);
  expect_lanes("relu(NaN)", [](std::size_t) { return 0.0; });
  relu_map(filled(tiny).data(), out.data(), n);
  expect_lanes("relu(denorm_min)", [&](std::size_t) { return tiny; });

  relu_backward_map(g.data(), filled(nan).data(), out.data(), n);
  expect_lanes("relu_bwd(x=NaN)", [&](std::size_t i) { return g[i]; });
  relu_backward_map(g.data(), filled(-0.0).data(), out.data(), n);
  expect_lanes("relu_bwd(x=-0)", [](std::size_t) { return 0.0; });

  // 1 - y*y is exactly +0 at y = ±1, so the result is g*0: a zero carrying
  // the sign of g.
  for (double y : {1.0, -1.0}) {
    tanh_backward_map(g.data(), filled(y).data(), out.data(), n);
    expect_lanes("tanh_bwd(y=±1)", [&](std::size_t i) {
      return std::signbit(g[i]) ? -0.0 : 0.0;
    });
  }

  fast_exp_map(filled(nan).data(), out.data(), n);
  expect_nan("exp(NaN)");
  fast_exp_map(filled(0.0).data(), out.data(), n);
  expect_lanes("exp(0)", [](std::size_t) { return 1.0; });
}

// Saturation boundary: tanh must pin to exactly ±1.0 past the threshold
// and NaN must survive every kernel.
TEST(FusedKernels, TanhSaturationAndNanSemantics) {
  EXPECT_EQ(fast_tanh_reference(20.0), 1.0);
  EXPECT_EQ(fast_tanh_reference(-20.0), -1.0);
  EXPECT_EQ(fast_tanh_reference(std::numeric_limits<double>::infinity()), 1.0);
  EXPECT_TRUE(std::isnan(
      fast_tanh_reference(std::numeric_limits<double>::quiet_NaN())));
  EXPECT_TRUE(std::isnan(
      fast_exp_reference(std::numeric_limits<double>::quiet_NaN())));
  EXPECT_EQ(fast_exp_reference(-1000.0), fast_exp_reference(-745.0));
  EXPECT_EQ(fast_exp_reference(1000.0), fast_exp_reference(709.0));
  // Signed zero must round-trip: tanh(-0.0) = -0.0.
  EXPECT_EQ(bits(fast_tanh_reference(-0.0)), bits(-0.0));
  EXPECT_EQ(bits(fast_tanh_reference(0.0)), bits(0.0));
}

// bias_act_into must match its scalar reference, and act_backward_colsum_into
// must match its stated contract — tanh_backward_map followed by
// col_sum_into — on ragged shapes.
TEST(FusedKernels, FusedRowKernelsMatchReference) {
  for (std::size_t rows : {std::size_t{1}, std::size_t{3}, std::size_t{7},
                           std::size_t{16}}) {
    for (std::size_t cols : {std::size_t{1}, std::size_t{5}, std::size_t{13},
                             std::size_t{32}}) {
      Rng rng(900 + rows * 64 + cols);
      Matrix pre(rows, cols), bias(1, cols), g(rows, cols);
      for (std::size_t i = 0; i < pre.size(); ++i) {
        pre.data()[i] = rng.uniform(-3.0, 3.0);
      }
      for (std::size_t i = 0; i < bias.size(); ++i) {
        bias.data()[i] = rng.uniform(-1.0, 1.0);
      }
      for (std::size_t i = 0; i < g.size(); ++i) {
        g.data()[i] = rng.uniform(-1.0, 1.0);
      }

      Matrix out(rows, cols), out_ref(rows, cols);
      bias_act_into(pre, bias, out);
      bias_act_into_reference(pre, bias, out_ref);
      for (std::size_t i = 0; i < out.size(); ++i) {
        ASSERT_EQ(bits(out.data()[i]), bits(out_ref.data()[i]))
            << "bias_act " << rows << "x" << cols << " element " << i;
      }

      Matrix dpre(rows, cols), dpre_ref(rows, cols);
      Matrix cs(1, cols), cs_ref(1, cols);
      act_backward_colsum_into(g, out, dpre, cs);
      tanh_backward_map(g.data(), out.data(), dpre_ref.data(), g.size());
      col_sum_into(dpre_ref, cs_ref);
      for (std::size_t i = 0; i < dpre.size(); ++i) {
        ASSERT_EQ(bits(dpre.data()[i]), bits(dpre_ref.data()[i]))
            << "dpre " << rows << "x" << cols << " element " << i;
      }
      for (std::size_t i = 0; i < cs.size(); ++i) {
        ASSERT_EQ(bits(cs.data()[i]), bits(cs_ref.data()[i]))
            << "colsum " << rows << "x" << cols << " element " << i;
      }
    }
  }
}

// The polynomial activations are not bitwise libm (the goldens are
// recorded with them) but must stay accurate: within ~1e-15 of libm across
// the working range, exact at 0.
TEST(FusedKernels, FastActivationsTrackLibm) {
  EXPECT_EQ(fast_exp_reference(0.0), 1.0);
  EXPECT_EQ(bits(fast_tanh_reference(0.0)), bits(0.0));
  Rng rng(77);
  for (int i = 0; i < 2000; ++i) {
    const double x = rng.uniform(-25.0, 25.0);
    const double e = fast_exp_reference(x);
    const double t = fast_tanh_reference(x);
    EXPECT_NEAR(e, std::exp(x), 2e-15 * std::exp(x) + 1e-300) << "exp " << x;
    EXPECT_NEAR(t, std::tanh(x), 1e-15) << "tanh " << x;
  }
}

}  // namespace
}  // namespace fedra
