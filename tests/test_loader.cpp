#include "trace/loader.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <limits>
#include <string>

namespace fedra {
namespace {

class TempCsv {
 public:
  TempCsv(const std::string& name, const std::string& content)
      : path_(::testing::TempDir() + name) {
    std::ofstream out(path_);
    out << content;
  }
  ~TempCsv() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Loads `f` expecting a std::runtime_error whose message names the file
/// and contains `detail` (a row label such as "row 3", or a reason).
void expect_load_error(const TempCsv& f, const std::string& detail,
                       const TraceLoadOptions& options = {}) {
  try {
    load_trace_csv(f.path(), options);
    ADD_FAILURE() << "loaded " << f.path();
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(f.path()), std::string::npos) << what;
    EXPECT_NE(what.find(detail), std::string::npos) << what;
  }
}

TEST(Loader, SingleColumnNoHeader) {
  TempCsv f("t1.csv", "100\n200\n300\n");
  auto t = load_trace_csv(f.path());
  ASSERT_EQ(t.num_samples(), 3u);
  EXPECT_DOUBLE_EQ(t.samples()[0], 100.0);
  EXPECT_DOUBLE_EQ(t.samples()[2], 300.0);
}

TEST(Loader, SingleColumnWithHeader) {
  TempCsv f("t2.csv", "bandwidth\n5.5\n6.5\n");
  auto t = load_trace_csv(f.path());
  ASSERT_EQ(t.num_samples(), 2u);
  EXPECT_DOUBLE_EQ(t.samples()[0], 5.5);
}

TEST(Loader, ScaleConvertsUnits) {
  TempCsv f("t3.csv", "1.5\n2.5\n");
  TraceLoadOptions opt;
  opt.scale = 1e6;  // file in MB/s -> bytes/s
  auto t = load_trace_csv(f.path(), opt);
  EXPECT_DOUBLE_EQ(t.samples()[0], 1.5e6);
}

TEST(Loader, TimestampedResamplesPiecewiseConstant) {
  // Value 10 holds on [0, 2), 30 on [2, 4).
  TempCsv f("t4.csv", "time,bw\n0,10\n2,30\n4,50\n");
  auto t = load_trace_csv(f.path());
  ASSERT_EQ(t.num_samples(), 4u);
  EXPECT_DOUBLE_EQ(t.samples()[0], 10.0);
  EXPECT_DOUBLE_EQ(t.samples()[1], 10.0);
  EXPECT_DOUBLE_EQ(t.samples()[2], 30.0);
  EXPECT_DOUBLE_EQ(t.samples()[3], 30.0);
}

TEST(Loader, TimestampedCustomResolution) {
  TempCsv f("t5.csv", "0,100\n10,200\n");
  TraceLoadOptions opt;
  opt.dt = 2.0;
  auto t = load_trace_csv(f.path(), opt);
  EXPECT_EQ(t.num_samples(), 5u);
  EXPECT_DOUBLE_EQ(t.resolution(), 2.0);
  EXPECT_DOUBLE_EQ(t.samples()[0], 100.0);
}

TEST(Loader, NonNumericCellThrows) {
  TempCsv f("t6.csv", "100\nabc\n");
  EXPECT_THROW(load_trace_csv(f.path()), std::runtime_error);
}

TEST(Loader, NonIncreasingTimestampsThrow) {
  TempCsv f("t7.csv", "0,10\n5,20\n5,30\n");
  EXPECT_THROW(load_trace_csv(f.path()), std::runtime_error);
}

TEST(Loader, HeaderOnlyThrows) {
  TempCsv f("t8.csv", "bandwidth\n");
  EXPECT_THROW(load_trace_csv(f.path()), std::runtime_error);
}

TEST(Loader, MissingFileThrows) {
  EXPECT_THROW(load_trace_csv("/no/such/trace.csv"), std::runtime_error);
}

TEST(Loader, BadOptionsThrow) {
  TempCsv f("t9.csv", "1\n2\n");
  TraceLoadOptions bad_dt;
  bad_dt.dt = 0.0;
  EXPECT_THROW(load_trace_csv(f.path(), bad_dt), std::invalid_argument);
  TraceLoadOptions bad_scale;
  bad_scale.scale = -1.0;
  EXPECT_THROW(load_trace_csv(f.path(), bad_scale), std::invalid_argument);
  // NaN fails no `<= 0` test, so it needs its own rejection.
  TraceLoadOptions nan_dt;
  nan_dt.dt = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(load_trace_csv(f.path(), nan_dt), std::invalid_argument);
  TraceLoadOptions nan_scale;
  nan_scale.scale = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(load_trace_csv(f.path(), nan_scale), std::invalid_argument);
}

TEST(Loader, MalformedTimestampRowThrows) {
  TempCsv f("t10.csv", "0,10\n1,\n");
  EXPECT_THROW(load_trace_csv(f.path()), std::runtime_error);
}

TEST(Loader, NegativeBandwidthThrowsNamingRow) {
  TempCsv single("t12.csv", "100\n-5\n300\n");
  expect_load_error(single, "row 2");
  TempCsv stamped("t13.csv", "time,bw\n0,10\n1,20\n2,-5\n");
  expect_load_error(stamped, "row 4");
}

TEST(Loader, NonFiniteBandwidthThrowsNamingRow) {
  TempCsv nan_cell("t14.csv", "100\nnan\n");
  expect_load_error(nan_cell, "row 2");
  TempCsv inf_cell("t15.csv", "0,10\n1,inf\n2,30\n");
  expect_load_error(inf_cell, "row 2");
  // Finite in the file, infinite once scaled.
  TempCsv big("t16.csv", "1e300\n2\n");
  TraceLoadOptions opt;
  opt.scale = 1e10;
  expect_load_error(big, "row 1", opt);
  // Every sample finite, but their integral is not.
  TempCsv volume("t23.csv", "1.7e308\n1.7e308\n");
  expect_load_error(volume, "overflows");
}

TEST(Loader, AllZeroTraceThrows) {
  TempCsv single("t17.csv", "0\n0\n0\n");
  expect_load_error(single, "all-zero");
  // Non-zero values that the resample grid never samples still leave an
  // all-zero trace.
  TempCsv stamped("t18.csv", "0,0\n1,5\n");
  expect_load_error(stamped, "all-zero");
}

TEST(Loader, NonFiniteTimestampThrowsNamingRow) {
  TempCsv f("t19.csv", "0,10\n1,20\ninf,30\n");
  expect_load_error(f, "row 3");
  TempCsv g("t20.csv", "nan,10\n1,20\n");
  expect_load_error(g, "row 1");
}

TEST(Loader, OversizedResampleGridThrows) {
  // 1e10 s at dt = 1 would be an 80 GB vector.
  TempCsv f("t21.csv", "0,10\n1e10,20\n");
  expect_load_error(f, "row 2");
  // One cell past the cap is already refused.
  TempCsv edge("t22.csv",
               "0,10\n" + std::to_string(kMaxTraceSamples + 1) + ",20\n");
  expect_load_error(edge, "row 2");
}

TEST(Loader, LoadedTraceSupportsUploadQueries) {
  TempCsv f("t11.csv", "10\n20\n");
  auto t = load_trace_csv(f.path());
  EXPECT_DOUBLE_EQ(t.upload_finish_time(0.0, 30.0), 2.0);
}

}  // namespace
}  // namespace fedra
