// Loading measured bandwidth traces from CSV, so the real Ghent 4G / HSDPA
// datasets drop into the pipeline unmodified when available.
//
// Accepted layouts (header row optional, auto-detected):
//   bandwidth                     -- one sample per row, uniform dt
//   timestamp,bandwidth           -- resampled onto a uniform dt grid
// Bandwidth unit is bytes/second unless `scale` converts it (e.g. pass
// 1e6 when the file stores MB/s).
#pragma once

#include <cstddef>
#include <string>

#include "trace/bandwidth_trace.hpp"

namespace fedra {

struct TraceLoadOptions {
  double dt = 1.0;     ///< output resolution, seconds
  double scale = 1.0;  ///< multiply every bandwidth value by this
};

/// Longest trace a timestamped file may resample to (2^24 samples, 128 MiB
/// of doubles): a wider time span is rejected instead of allocated.
inline constexpr std::size_t kMaxTraceSamples = std::size_t{1} << 24;

/// Loads one trace. Throws std::invalid_argument for a non-positive or
/// non-finite dt/scale, and std::runtime_error naming the file and row on
/// unreadable or malformed files: non-numeric cells after the optional
/// header, a negative or non-finite bandwidth (after `scale`), a
/// non-finite or non-increasing timestamp, a resample grid over
/// kMaxTraceSamples, or a trace that is all zeros.
BandwidthTrace load_trace_csv(const std::string& path,
                              const TraceLoadOptions& options = {});

}  // namespace fedra
