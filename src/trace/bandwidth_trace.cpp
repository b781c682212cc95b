#include "trace/bandwidth_trace.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace fedra {

BandwidthTrace::BandwidthTrace(std::vector<double> samples, double dt)
    : samples_(std::move(samples)), dt_(dt) {
  FEDRA_EXPECTS(!samples_.empty());
  FEDRA_EXPECTS(dt_ > 0.0);
  prefix_.resize(samples_.size() + 1, 0.0);
  for (std::size_t j = 0; j < samples_.size(); ++j) {
    FEDRA_EXPECTS(samples_[j] >= 0.0);
    prefix_[j + 1] = prefix_[j] + samples_[j] * dt_;
  }
  // A trace that can never move a byte would make uploads take forever.
  FEDRA_EXPECTS(prefix_.back() > 0.0);
}

double BandwidthTrace::bandwidth_at(double t) const {
  FEDRA_EXPECTS(t >= 0.0);
  const double period = duration();
  double local = std::fmod(t, period);
  auto j = static_cast<std::size_t>(local / dt_);
  if (j >= samples_.size()) j = samples_.size() - 1;  // fp edge at period end
  return samples_[j];
}

double BandwidthTrace::cumulative_in_period(double t) const {
  const auto j = std::min(static_cast<std::size_t>(t / dt_),
                          samples_.size() - 1);
  const double within = t - static_cast<double>(j) * dt_;
  return prefix_[j] + samples_[j] * within;
}

double BandwidthTrace::cumulative_bytes(double t) const {
  FEDRA_EXPECTS(t >= 0.0);
  const double period = duration();
  const double full_periods = std::floor(t / period);
  const double local = t - full_periods * period;
  return full_periods * prefix_.back() + cumulative_in_period(local);
}

double BandwidthTrace::average_bandwidth(double t0, double t1) const {
  FEDRA_EXPECTS(t1 > t0 && t0 >= 0.0);
  return (cumulative_bytes(t1) - cumulative_bytes(t0)) / (t1 - t0);
}

double BandwidthTrace::upload_finish_time(double start, double bytes) const {
  FEDRA_EXPECTS(start >= 0.0);
  FEDRA_EXPECTS(bytes >= 0.0);
  if (bytes == 0.0) return start;
  const double period = duration();
  const double per_period = prefix_.back();

  double target = cumulative_bytes(start) + bytes;
  // Skip whole periods first, then binary-search within one period.
  const double periods = std::floor(target / per_period);
  double remaining = target - periods * per_period;
  // remaining in [0, per_period); find smallest local t with
  // cumulative_in_period(t) >= remaining.
  const auto it = std::lower_bound(prefix_.begin(), prefix_.end(), remaining);
  double local;
  if (it == prefix_.begin()) {
    local = 0.0;
  } else {
    const auto j = static_cast<std::size_t>(it - prefix_.begin()) - 1;
    const double into = remaining - prefix_[j];
    // samples_[j] can be 0 only if into == 0 (prefix flat over the bin);
    // lower_bound then lands at the bin start, so the division is safe.
    local = static_cast<double>(j) * dt_ +
            (samples_[j] > 0.0 ? into / samples_[j] : 0.0);
  }
  double finish = periods * period + local;
  // Guard against fp round-off making finish slightly precede start.
  return std::max(finish, start);
}

double BandwidthTrace::latest_start(double deadline, double bytes) const {
  FEDRA_EXPECTS(deadline >= 0.0);
  FEDRA_EXPECTS(bytes >= 0.0);
  const double period = duration();
  const double per_period = prefix_.back();

  const double target = cumulative_bytes(deadline) - bytes;
  // Wrap to one period (floor also places a negative target in the period
  // before 0), then find the largest local t with
  // cumulative_in_period(t) <= remaining: upper_bound skips every bin the
  // prefix is flat over, so the bin it lands after has positive bandwidth.
  // Rounding can leave `remaining` a hair outside [0, per_period); the
  // max() keeps upper_bound past prefix_[0].
  const double periods = std::floor(target / per_period);
  const double remaining = std::max(target - periods * per_period, 0.0);
  const auto it = std::upper_bound(prefix_.begin(), prefix_.end(), remaining);
  double local = period;  // remaining rounded up to a whole period
  if (it != prefix_.end()) {
    const auto j = static_cast<std::size_t>(it - prefix_.begin()) - 1;
    local = static_cast<double>(j) * dt_ +
            (remaining - prefix_[j]) / samples_[j];
  }
  const double start = periods * period + local;
  // A deficit under one ulp of a period can round `remaining` up to a
  // whole period and land the start on 0; keep the sign documented above.
  return target < 0.0
             ? std::min(start, -std::numeric_limits<double>::denorm_min())
             : start;
}

namespace {

constexpr std::size_t kSolveLanes = 8;

/// Lockstep solve for `lanes` uploads whose traces all have the same
/// sample count. Every arithmetic expression mirrors upload_finish_time /
/// cumulative_bytes operation for operation, so each lane's result is
/// bit-identical to the scalar call; the lower_bound index is unique given
/// the prefix array, so the branchless search lands on the same bin.
void solve_lockstep(const BandwidthTrace* const* traces, const double* starts,
                    std::size_t lanes, double bytes, double* out) {
  const std::size_t m = traces[0]->num_samples();
  const double* prefix[kSolveLanes];
  const double* samples[kSolveLanes];
  double dt[kSolveLanes];
  double period[kSolveLanes];
  double periods[kSolveLanes];
  double remaining[kSolveLanes];
  std::size_t base[kSolveLanes];
  for (std::size_t k = 0; k < lanes; ++k) {
    const BandwidthTrace& tr = *traces[k];
    prefix[k] = tr.prefix_bytes().data();
    samples[k] = tr.samples().data();
    dt[k] = tr.resolution();
    period[k] = tr.duration();
    const double per_period = tr.prefix_bytes().back();
    const double start = starts[k];
    FEDRA_EXPECTS(start >= 0.0);
    // cumulative_bytes(start), inlined with the member's exact op order.
    const double full_periods = std::floor(start / period[k]);
    const double local_t = start - full_periods * period[k];
    const auto j =
        std::min(static_cast<std::size_t>(local_t / dt[k]), m - 1);
    const double within = local_t - static_cast<double>(j) * dt[k];
    const double cum =
        full_periods * per_period + (prefix[k][j] + samples[k][j] * within);
    const double target = cum + bytes;
    periods[k] = std::floor(target / per_period);
    remaining[k] = target - periods[k] * per_period;
    base[k] = 0;
  }
  // Branchless lower_bound over the m+1 prefix entries, all lanes in
  // lockstep: the trip count depends only on m, never on the values.
  std::size_t len = m + 1;
  while (len > 1) {
    const std::size_t half = len / 2;
    for (std::size_t k = 0; k < lanes; ++k) {
      base[k] += prefix[k][base[k] + half - 1] < remaining[k] ? half : 0;
    }
    len -= half;
  }
  for (std::size_t k = 0; k < lanes; ++k) {
    const std::size_t idx =
        base[k] + (prefix[k][base[k]] < remaining[k] ? 1 : 0);
    double local;
    if (idx == 0) {
      local = 0.0;
    } else {
      const std::size_t j = idx - 1;
      const double into = remaining[k] - prefix[k][j];
      local = static_cast<double>(j) * dt[k] +
              (samples[k][j] > 0.0 ? into / samples[k][j] : 0.0);
    }
    const double finish = periods[k] * period[k] + local;
    out[k] = std::max(finish, starts[k]);
  }
}

}  // namespace

void upload_finish_times(const BandwidthTrace* const* traces,
                         const double* starts, std::size_t n, double bytes,
                         double* out) {
  FEDRA_EXPECTS(bytes >= 0.0);
  if (bytes == 0.0) {
    for (std::size_t k = 0; k < n; ++k) {
      FEDRA_EXPECTS(starts[k] >= 0.0);
      out[k] = starts[k];
    }
    return;
  }
  std::size_t k = 0;
  while (k < n) {
    const std::size_t lanes = std::min(kSolveLanes, n - k);
    const std::size_t m = traces[k]->num_samples();
    bool uniform = true;
    for (std::size_t l = 1; l < lanes; ++l) {
      uniform = uniform && traces[k + l]->num_samples() == m;
    }
    if (uniform) {
      solve_lockstep(traces + k, starts + k, lanes, bytes, out + k);
    } else {
      for (std::size_t l = 0; l < lanes; ++l) {
        out[k + l] = traces[k + l]->upload_finish_time(starts[k + l], bytes);
      }
    }
    k += lanes;
  }
}

void BandwidthTrace::upload_finish_times(const double* starts, std::size_t n,
                                         double bytes, double* out) const {
  const BandwidthTrace* lanes[kSolveLanes];
  for (auto& lane : lanes) lane = this;
  std::size_t k = 0;
  while (k < n) {
    const std::size_t batch = std::min(kSolveLanes, n - k);
    fedra::upload_finish_times(lanes, starts + k, batch, bytes, out + k);
    k += batch;
  }
}

double BandwidthTrace::slot_average(long long slot, double h) const {
  FEDRA_EXPECTS(h > 0.0);
  const double period = duration();
  // Wrap negative slots into one period's worth of slots.
  const auto slots_per_period =
      static_cast<long long>(std::ceil(period / h));
  long long wrapped = slot % slots_per_period;
  if (wrapped < 0) wrapped += slots_per_period;
  const double t0 = static_cast<double>(wrapped) * h;
  return average_bandwidth(t0, t0 + h);
}

double BandwidthTrace::mean_bandwidth() const {
  return prefix_.back() / duration();
}

double BandwidthTrace::min_bandwidth() const {
  return *std::min_element(samples_.begin(), samples_.end());
}

double BandwidthTrace::max_bandwidth() const {
  return *std::max_element(samples_.begin(), samples_.end());
}

}  // namespace fedra
