#include "trace/transforms.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "trace/generator.hpp"
#include "util/rng.hpp"

namespace fedra {
namespace {

TEST(Transforms, ConcatJoinsInOrder) {
  BandwidthTrace a({1.0, 2.0}, 1.0);
  BandwidthTrace b({3.0}, 1.0);
  auto joined = concat_traces({a, b, a});
  EXPECT_EQ(joined.num_samples(), 5u);
  EXPECT_DOUBLE_EQ(joined.samples()[2], 3.0);
  EXPECT_DOUBLE_EQ(joined.samples()[4], 2.0);
}

TEST(Transforms, StepTraceSegments) {
  auto t = step_trace({{3.0, 100.0}, {2.0, 50.0}}, 1.0);
  EXPECT_EQ(t.num_samples(), 5u);
  EXPECT_DOUBLE_EQ(t.bandwidth_at(0.5), 100.0);
  EXPECT_DOUBLE_EQ(t.bandwidth_at(2.9), 100.0);
  EXPECT_DOUBLE_EQ(t.bandwidth_at(3.1), 50.0);
}

TEST(Transforms, StepTraceRoundsToWholeSamples) {
  auto t = step_trace({{0.3, 10.0}, {1.6, 20.0}}, 1.0);
  // 0.3 s rounds up to 1 sample; 1.6 s rounds to 2.
  EXPECT_EQ(t.num_samples(), 3u);
  EXPECT_DOUBLE_EQ(t.samples()[0], 10.0);
  EXPECT_DOUBLE_EQ(t.samples()[1], 20.0);
}

TEST(Transforms, ComposedScenario) {
  // Build the regime-shift scenario the adaptive-scheduler example uses,
  // then verify the integral bookkeeping survives the composition.
  auto shifting = concat_traces({step_trace({{300.0, 7e6}}),
                                 step_trace({{300.0, 0.5e6}}),
                                 step_trace({{300.0, 7e6}})});
  EXPECT_EQ(shifting.num_samples(), 900u);
  // 10 MB at t=0 (fast phase): ~1.43 s. At t=310 (dead zone): 20 s.
  EXPECT_NEAR(shifting.upload_duration(0.0, 10e6), 10.0 / 7.0, 1e-9);
  EXPECT_NEAR(shifting.upload_duration(310.0, 10e6), 20.0, 1e-9);
}

TEST(Transforms, ScaledGeneratorTraceKeepsShape) {
  Rng rng(1);
  auto t = generate_trace(lte_walking_model(), 500, rng);
  std::vector<double> samples = t.samples();
  for (auto& s : samples) s *= 2.0;
  const BandwidthTrace doubled(std::move(samples), t.resolution());
  // Doubling the rate is equivalent to halving the payload: transferring
  // 2X bytes on the doubled trace takes as long as X on the original.
  for (double start : {0.0, 100.0, 333.0}) {
    EXPECT_NEAR(doubled.upload_duration(start, 2e6),
                t.upload_duration(start, 1e6), 1e-6);
  }
}

TEST(Transforms, BlackoutZeroesEveryBinTouchingTheWindow) {
  BandwidthTrace t(std::vector<double>(10, 50.0), 1.0);
  // Window [2.5, 5.5) touches bins 2..5 (a window ending mid-bin
  // silences that bin too).
  auto dark = blackout_trace(t, 2.5, 3.0);
  for (std::size_t j = 0; j < 10; ++j) {
    const bool in_window = j >= 2 && j <= 5;
    EXPECT_DOUBLE_EQ(dark.samples()[j], in_window ? 0.0 : 50.0) << j;
  }
}

TEST(Transforms, BlackoutWrapsAcrossThePeriodBoundary) {
  BandwidthTrace t(std::vector<double>(10, 50.0), 1.0);
  // Start maps to bin 8; a 3 s window covers bins 8, 9 and wraps to 0.
  // Absolute starts beyond one period fold in periodically.
  for (double start : {8.0, 18.0, 108.0}) {
    auto dark = blackout_trace(t, start, 3.0);
    EXPECT_DOUBLE_EQ(dark.samples()[8], 0.0);
    EXPECT_DOUBLE_EQ(dark.samples()[9], 0.0);
    EXPECT_DOUBLE_EQ(dark.samples()[0], 0.0);
    EXPECT_DOUBLE_EQ(dark.samples()[1], 50.0);
    EXPECT_DOUBLE_EQ(dark.samples()[7], 50.0);
  }
}

TEST(Transforms, BlackoutZeroDurationIsANoop) {
  BandwidthTrace t({10.0, 20.0, 30.0}, 1.0);
  auto same = blackout_trace(t, 1.0, 0.0);
  EXPECT_EQ(same.samples(), t.samples());
}

TEST(Transforms, BlackoutNeverSilencesTheWholeTrace) {
  // Even a near-period outage leaves at least one live bin, so
  // upload_finish_time stays well-defined (it just waits a period).
  BandwidthTrace t(std::vector<double>(4, 25.0), 1.0);
  auto dark = blackout_trace(t, 0.0, 3.9);
  double remaining = 0.0;
  for (double s : dark.samples()) remaining += s;
  EXPECT_GT(remaining, 0.0);
  EXPECT_GT(dark.upload_finish_time(0.0, 10.0), 3.0);
}

TEST(TransformsDeathTest, BadArgsAbort) {
  BandwidthTrace t({1.0, 2.0}, 1.0);
  EXPECT_DEATH((void)concat_traces({}), "precondition");
  EXPECT_DEATH((void)step_trace({}), "precondition");
  EXPECT_DEATH((void)blackout_trace(t, -1.0, 0.5), "precondition");
  EXPECT_DEATH((void)blackout_trace(t, 0.0, 2.0), "precondition");
}

}  // namespace
}  // namespace fedra
