#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

namespace fedra {
namespace {

TEST(Rng, SameSeedSameStream) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(Rng, ReseedRestartsStream) {
  Rng a(77);
  std::vector<std::uint64_t> first;
  for (int i = 0; i < 10; ++i) first.push_back(a.next_u64());
  a.reseed(77);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(a.next_u64(), first[i]);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(6);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.5, 7.25);
    EXPECT_GE(u, -3.5);
    EXPECT_LT(u, 7.25);
  }
}

TEST(Rng, UniformMeanApproximatelyHalf) {
  Rng rng(7);
  double acc = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) acc += rng.uniform();
  EXPECT_NEAR(acc / n, 0.5, 0.01);
}

TEST(Rng, UniformIntCoversInclusiveRange) {
  Rng rng(8);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.uniform_int(3, 7);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 7);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, UniformIntSingleton) {
  Rng rng(9);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(rng.uniform_int(42, 42), 42);
}

TEST(Rng, UniformIntNegativeRange) {
  Rng rng(10);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(-10, -5);
    EXPECT_GE(v, -10);
    EXPECT_LE(v, -5);
  }
}

TEST(Rng, GaussianMoments) {
  Rng rng(11);
  const int n = 200000;
  double sum = 0.0;
  double sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double g = rng.gaussian();
    sum += g;
    sq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sq / n, 1.0, 0.03);
}

TEST(Rng, GaussianScaled) {
  Rng rng(12);
  const int n = 100000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += rng.gaussian(5.0, 2.0);
  EXPECT_NEAR(sum / n, 5.0, 0.05);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(14);
  const int n = 100000;
  int hits = 0;
  for (int i = 0; i < n; ++i) {
    if (rng.bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, BernoulliDegenerate) {
  Rng rng(15);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(Rng, CategoricalRespectsWeights) {
  Rng rng(16);
  std::vector<double> weights{1.0, 3.0, 0.0, 6.0};
  std::vector<int> counts(4, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[rng.categorical(weights)];
  EXPECT_EQ(counts[2], 0);
  EXPECT_NEAR(counts[0] / static_cast<double>(n), 0.1, 0.01);
  EXPECT_NEAR(counts[1] / static_cast<double>(n), 0.3, 0.01);
  EXPECT_NEAR(counts[3] / static_cast<double>(n), 0.6, 0.01);
}

TEST(Rng, PermutationIsValid) {
  Rng rng(17);
  const std::size_t n = 257;
  auto perm = rng.permutation(n);
  ASSERT_EQ(perm.size(), n);
  std::vector<bool> seen(n, false);
  for (auto i : perm) {
    ASSERT_LT(i, n);
    EXPECT_FALSE(seen[i]);
    seen[i] = true;
  }
}

TEST(Rng, PermutationEmptyAndSingle) {
  Rng rng(18);
  EXPECT_TRUE(rng.permutation(0).empty());
  auto one = rng.permutation(1);
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0], 0u);
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng parent(19);
  Rng child = parent.split();
  // The child stream must not be identical to the parent's continuation.
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (parent.next_u64() == child.next_u64()) ++same;
  }
  EXPECT_LT(same, 2);
}

class RngSeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RngSeedSweep, UniformIntUnbiasedOverSmallRange) {
  Rng rng(GetParam());
  std::vector<int> counts(4, 0);
  const int n = 40000;
  for (int i = 0; i < n; ++i) ++counts[rng.uniform_int(0, 3)];
  for (int c : counts) {
    EXPECT_NEAR(c / static_cast<double>(n), 0.25, 0.02);
  }
}

TEST_P(RngSeedSweep, GaussianSymmetry) {
  Rng rng(GetParam());
  int pos = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (rng.gaussian() > 0.0) ++pos;
  }
  EXPECT_NEAR(pos / static_cast<double>(n), 0.5, 0.02);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RngSeedSweep,
                         ::testing::Values(1u, 2u, 42u, 1234u, 99999u));

}  // namespace
}  // namespace fedra
