// Time series of uplink bandwidth for one mobile device.
//
// A trace is a sequence of samples at fixed resolution dt: sample j is the
// bandwidth (bytes/second) held constant over [j*dt, (j+1)*dt). Traces are
// treated as PERIODIC — simulations routinely run longer than a measured
// trace, and the paper's evaluation likewise loops trace segments.
//
// The key query is upload_finish_time(): Eq. (3) of the paper defines the
// per-iteration bandwidth B_i^k as the average realized speed over the
// upload interval, i.e. the upload of xi bytes starting at t finishes at
// the first t' with integral_t^t' B(u) du = xi. A prefix-sum integral makes
// that an O(log n) query (binary search + linear interpolation inside one
// sample).
#pragma once

#include <cstddef>
#include <vector>

#include "util/contracts.hpp"

namespace fedra {

class BandwidthTrace {
 public:
  BandwidthTrace() = default;

  /// `samples` are bandwidths in bytes/second, one per `dt`-second bin.
  BandwidthTrace(std::vector<double> samples, double dt);

  std::size_t num_samples() const { return samples_.size(); }
  double resolution() const { return dt_; }
  /// One period of the trace, in seconds.
  double duration() const { return static_cast<double>(samples_.size()) * dt_; }
  const std::vector<double>& samples() const { return samples_; }

  /// Instantaneous bandwidth at absolute time t >= 0 (periodic extension).
  double bandwidth_at(double t) const;

  /// Bytes transferable over [0, t] (periodic extension), t >= 0.
  double cumulative_bytes(double t) const;

  /// Average bandwidth over [t0, t1], t1 > t0 — this is B_i^k of Eq. (3)
  /// when [t0, t1] is the realized upload interval.
  double average_bandwidth(double t0, double t1) const;

  /// First time t' >= start such that `bytes` have been transferred since
  /// `start`; i.e. the upload completion time. Requires a trace whose mean
  /// bandwidth is positive (guaranteed at construction).
  double upload_finish_time(double start, double bytes) const;

  /// Inverse of upload_finish_time in its start: the latest start s at
  /// which `bytes` still finish by `deadline`, i.e. the largest s with
  /// cumulative_bytes(s) <= cumulative_bytes(deadline) - bytes. Upload
  /// finish time never decreases as the start moves later, so every
  /// start <= s meets the deadline and every later one misses it. Inside
  /// a zero-bandwidth run the result is the run's end. Negative when no
  /// start >= 0 fits (cumulative_bytes(deadline) < bytes).
  double latest_start(double deadline, double bytes) const;

  /// Prefix integral: prefix_bytes()[j] = bytes transferable over the
  /// first j samples of one period (size num_samples() + 1). Exposed for
  /// the batched fleet pricing kernels.
  const std::vector<double>& prefix_bytes() const { return prefix_; }

  /// Length in seconds of the run of zero-bandwidth bins that ends each
  /// period (0 when the last sample is positive). An upload whose last
  /// byte lands on a period boundary finished this long before it.
  double zero_tail() const { return zero_tail_; }

  /// Upload duration (finish - start) for `bytes` starting at `start`.
  double upload_duration(double start, double bytes) const {
    return upload_finish_time(start, bytes) - start;
  }

  /// Average bandwidth over slot j of width h seconds: mean of B over
  /// [j*h, (j+1)*h). Negative j wraps periodically — this is how the DRL
  /// state looks "back" before the episode start (paper Section IV-B1).
  double slot_average(long long slot, double h) const;

  /// Mean bandwidth over one period.
  double mean_bandwidth() const;
  double min_bandwidth() const;
  double max_bandwidth() const;

 private:
  /// Bytes transferable in [0, t] for t within a single period.
  double cumulative_in_period(double t) const;

  std::vector<double> samples_;
  std::vector<double> prefix_;  // prefix_[j] = bytes over first j samples
  double dt_ = 1.0;
  double zero_tail_ = 0.0;
};

/// Batched Eq. (3) solve across (possibly distinct) traces:
/// out[k] = traces[k]->upload_finish_time(starts[k], bytes), bit-identical
/// to the scalar calls. Lanes whose traces share a sample count run their
/// per-period binary searches in lockstep (a branchless lower_bound with
/// one trip count for the whole batch, so 8 independent search chains keep
/// the core busy instead of serializing on cache latency); mixed batches
/// fall back to per-lane scalar solves.
void upload_finish_times(const BandwidthTrace* const* traces,
                         const double* starts, std::size_t n, double bytes,
                         double* out);

}  // namespace fedra
