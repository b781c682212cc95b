#include "trace/bandwidth_trace.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "trace/generator.hpp"
#include "util/rng.hpp"

namespace fedra {
namespace {

TEST(BandwidthTrace, ConstantTraceBasics) {
  auto t = constant_trace(100.0, 10);  // 100 B/s for 10 s
  EXPECT_EQ(t.num_samples(), 10u);
  EXPECT_DOUBLE_EQ(t.duration(), 10.0);
  EXPECT_DOUBLE_EQ(t.mean_bandwidth(), 100.0);
  EXPECT_DOUBLE_EQ(t.bandwidth_at(0.0), 100.0);
  EXPECT_DOUBLE_EQ(t.bandwidth_at(9.99), 100.0);
}

TEST(BandwidthTrace, BandwidthAtSelectsBin) {
  BandwidthTrace t({10.0, 20.0, 30.0}, 1.0);
  EXPECT_DOUBLE_EQ(t.bandwidth_at(0.5), 10.0);
  EXPECT_DOUBLE_EQ(t.bandwidth_at(1.0), 20.0);
  EXPECT_DOUBLE_EQ(t.bandwidth_at(2.999), 30.0);
}

TEST(BandwidthTrace, PeriodicExtension) {
  BandwidthTrace t({10.0, 20.0}, 1.0);
  EXPECT_DOUBLE_EQ(t.bandwidth_at(2.5), 10.0);  // wraps
  EXPECT_DOUBLE_EQ(t.bandwidth_at(3.5), 20.0);
  EXPECT_DOUBLE_EQ(t.bandwidth_at(100.25), 10.0);
}

TEST(BandwidthTrace, CumulativeBytesLinearWithinBin) {
  BandwidthTrace t({10.0, 20.0}, 1.0);
  EXPECT_DOUBLE_EQ(t.cumulative_bytes(0.0), 0.0);
  EXPECT_DOUBLE_EQ(t.cumulative_bytes(0.5), 5.0);
  EXPECT_DOUBLE_EQ(t.cumulative_bytes(1.0), 10.0);
  EXPECT_DOUBLE_EQ(t.cumulative_bytes(1.5), 20.0);
  EXPECT_DOUBLE_EQ(t.cumulative_bytes(2.0), 30.0);
  // Next period repeats the pattern.
  EXPECT_DOUBLE_EQ(t.cumulative_bytes(3.0), 40.0);
  EXPECT_DOUBLE_EQ(t.cumulative_bytes(4.0), 60.0);
}

TEST(BandwidthTrace, AverageBandwidthMatchesIntegral) {
  BandwidthTrace t({10.0, 30.0}, 1.0);
  EXPECT_DOUBLE_EQ(t.average_bandwidth(0.0, 2.0), 20.0);
  EXPECT_DOUBLE_EQ(t.average_bandwidth(0.0, 1.0), 10.0);
  EXPECT_DOUBLE_EQ(t.average_bandwidth(0.5, 1.5), 20.0);
}

TEST(BandwidthTrace, UploadFinishTimeExactBins) {
  BandwidthTrace t({10.0, 20.0}, 1.0);
  // 10 bytes at 10 B/s -> 1 s.
  EXPECT_DOUBLE_EQ(t.upload_finish_time(0.0, 10.0), 1.0);
  // 20 more bytes in the second bin -> finishes at 2.0.
  EXPECT_DOUBLE_EQ(t.upload_finish_time(0.0, 30.0), 2.0);
  // Half the second bin.
  EXPECT_DOUBLE_EQ(t.upload_finish_time(1.0, 10.0), 1.5);
}

TEST(BandwidthTrace, UploadZeroBytesInstant) {
  BandwidthTrace t({5.0}, 1.0);
  EXPECT_DOUBLE_EQ(t.upload_finish_time(3.25, 0.0), 3.25);
}

TEST(BandwidthTrace, UploadSpansPeriods) {
  BandwidthTrace t({10.0}, 1.0);  // 10 B per period of 1 s
  EXPECT_DOUBLE_EQ(t.upload_finish_time(0.0, 55.0), 5.5);
  EXPECT_DOUBLE_EQ(t.upload_finish_time(2.25, 10.0), 3.25);
}

TEST(BandwidthTrace, UploadDurationConsistentWithAverage) {
  Rng rng(5);
  auto t = generate_trace(lte_walking_model(), 600, rng);
  const double start = 37.7;
  const double bytes = 12e6;
  const double finish = t.upload_finish_time(start, bytes);
  ASSERT_GT(finish, start);
  // Eq. (3): transferred bytes == average bandwidth * duration.
  const double avg = t.average_bandwidth(start, finish);
  EXPECT_NEAR(avg * (finish - start), bytes, bytes * 1e-9);
}

TEST(BandwidthTrace, UploadFinishIsInverseOfCumulative) {
  Rng rng(6);
  auto t = generate_trace(hsdpa_bus_model(), 400, rng);
  for (double start : {0.0, 11.3, 399.0, 755.5}) {
    for (double bytes : {1e3, 5e5, 3e6}) {
      const double finish = t.upload_finish_time(start, bytes);
      EXPECT_NEAR(t.cumulative_bytes(finish) - t.cumulative_bytes(start),
                  bytes, bytes * 1e-9 + 1e-9);
    }
  }
}

TEST(BandwidthTrace, UploadMonotoneInBytes) {
  Rng rng(7);
  auto t = generate_trace(lte_walking_model(), 300, rng);
  double prev = t.upload_finish_time(10.0, 0.0);
  for (double bytes = 1e5; bytes <= 3e7; bytes += 1e5) {
    const double f = t.upload_finish_time(10.0, bytes);
    EXPECT_GE(f, prev);
    prev = f;
  }
}

TEST(BandwidthTrace, LatestStartIsInverseOfUploadFinish) {
  Rng rng(8);
  auto t = generate_trace(hsdpa_bus_model(), 400, rng);
  const double per_period = t.prefix_bytes().back();
  // The last two sizes need more than one period of the trace, so the
  // latest start lies one or more periods before the deadline.
  for (double deadline : {37.25, 399.0, 755.5, 1333.0}) {
    for (double bytes : {0.0, 1e3, 5e5, 3e6, 1.5 * per_period,
                         2.2 * per_period}) {
      const double s = t.latest_start(deadline, bytes);
      if (s < 0.0) {
        EXPECT_LT(t.cumulative_bytes(deadline), bytes) << deadline;
        continue;
      }
      EXPECT_LE(t.upload_finish_time(s, bytes), deadline * (1.0 + 1e-9))
          << "deadline " << deadline << " bytes " << bytes;
      if (bytes > 0.0) {
        EXPECT_GT(t.upload_finish_time(s + 1e-6, bytes), deadline)
            << "deadline " << deadline << " bytes " << bytes;
      }
    }
  }
}

TEST(BandwidthTrace, LatestStartWrapsAcrossPeriods) {
  BandwidthTrace t({10.0, 20.0}, 1.0);  // 30 bytes per 2 s period
  // B(6) = 90, so 75 bytes due at t = 6 start where B = 15: at 1.25,
  // two periods before the deadline's own.
  EXPECT_DOUBLE_EQ(t.latest_start(6.0, 75.0), 1.25);
  EXPECT_DOUBLE_EQ(t.upload_finish_time(1.25, 75.0), 6.0);
  // A deadline mid-bin in the fourth period: B(7.5) = 110, start at B = 45.
  EXPECT_DOUBLE_EQ(t.latest_start(7.5, 65.0), 3.25);
  EXPECT_DOUBLE_EQ(t.upload_finish_time(3.25, 65.0), 7.5);
}

TEST(BandwidthTrace, LatestStartEndsZeroBandwidthRuns) {
  BandwidthTrace t({10.0, 0.0, 0.0, 20.0}, 1.0);
  // 20 bytes by t = 4 can start anywhere in the idle [1, 3): the latest
  // start is the end of that run.
  EXPECT_DOUBLE_EQ(t.latest_start(4.0, 20.0), 3.0);
  EXPECT_DOUBLE_EQ(t.upload_finish_time(3.0, 20.0), 4.0);
  EXPECT_GT(t.upload_finish_time(3.01, 20.0), 4.0);
  // A deadline inside the idle run is met by the bytes moved before it.
  EXPECT_DOUBLE_EQ(t.latest_start(2.5, 5.0), 0.5);

  // An idle run across the period boundary: [2, 4) here.
  BandwidthTrace wrap({0.0, 10.0, 0.0}, 1.0);
  EXPECT_DOUBLE_EQ(wrap.latest_start(5.0, 10.0), 4.0);
  EXPECT_DOUBLE_EQ(wrap.cumulative_bytes(5.0) - wrap.cumulative_bytes(4.0),
                   10.0);
  EXPECT_DOUBLE_EQ(wrap.latest_start(4.0, 10.0), 1.0);
}

TEST(BandwidthTrace, LatestStartNegativeWhenNothingFits) {
  auto t = constant_trace(100.0, 10);
  EXPECT_DOUBLE_EQ(t.latest_start(2.0, 200.0), 0.0);  // exactly fits
  EXPECT_LT(t.latest_start(1.0, 200.0), 0.0);
  EXPECT_LT(t.latest_start(0.0, 1e-300), 0.0);
  EXPECT_DOUBLE_EQ(t.latest_start(3.0, 0.0), 3.0);
}

TEST(BandwidthTrace, SlotAverageBasic) {
  BandwidthTrace t({10.0, 20.0, 30.0, 40.0}, 1.0);
  EXPECT_DOUBLE_EQ(t.slot_average(0, 2.0), 15.0);
  EXPECT_DOUBLE_EQ(t.slot_average(1, 2.0), 35.0);
}

TEST(BandwidthTrace, SlotAverageWrapsNegative) {
  BandwidthTrace t({10.0, 20.0, 30.0, 40.0}, 1.0);
  // 2 slots per period; slot -1 wraps to slot 1.
  EXPECT_DOUBLE_EQ(t.slot_average(-1, 2.0), t.slot_average(1, 2.0));
  EXPECT_DOUBLE_EQ(t.slot_average(-2, 2.0), t.slot_average(0, 2.0));
  EXPECT_DOUBLE_EQ(t.slot_average(5, 2.0), t.slot_average(1, 2.0));
}

TEST(BandwidthTrace, MinMaxBandwidth) {
  BandwidthTrace t({5.0, 1.0, 9.0}, 1.0);
  EXPECT_DOUBLE_EQ(t.min_bandwidth(), 1.0);
  EXPECT_DOUBLE_EQ(t.max_bandwidth(), 9.0);
}

TEST(BandwidthTrace, SubSecondResolution) {
  BandwidthTrace t({100.0, 200.0}, 0.5);  // two 0.5 s bins
  EXPECT_DOUBLE_EQ(t.duration(), 1.0);
  EXPECT_DOUBLE_EQ(t.cumulative_bytes(0.5), 50.0);
  EXPECT_DOUBLE_EQ(t.cumulative_bytes(1.0), 150.0);
  EXPECT_DOUBLE_EQ(t.upload_finish_time(0.0, 150.0), 1.0);
}

TEST(BandwidthTraceDeathTest, InvalidConstruction) {
  EXPECT_DEATH(BandwidthTrace({}, 1.0), "precondition");
  EXPECT_DEATH(BandwidthTrace({1.0}, 0.0), "precondition");
  EXPECT_DEATH(BandwidthTrace({-1.0}, 1.0), "precondition");
  EXPECT_DEATH(BandwidthTrace({0.0, 0.0}, 1.0), "precondition");
}

}  // namespace
}  // namespace fedra
