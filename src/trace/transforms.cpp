#include "trace/transforms.hpp"

#include <cmath>

#include "util/contracts.hpp"

namespace fedra {

BandwidthTrace step_trace(
    const std::vector<std::pair<double, double>>& segments, double dt) {
  FEDRA_EXPECTS(!segments.empty());
  FEDRA_EXPECTS(dt > 0.0);
  std::vector<double> samples;
  for (const auto& [duration, bandwidth] : segments) {
    FEDRA_EXPECTS(duration > 0.0);
    FEDRA_EXPECTS(bandwidth >= 0.0);
    const auto count = std::max<std::size_t>(
        1, static_cast<std::size_t>(std::llround(duration / dt)));
    samples.insert(samples.end(), count, bandwidth);
  }
  return BandwidthTrace(std::move(samples), dt);
}

BandwidthTrace blackout_trace(const BandwidthTrace& trace, double start,
                              double duration) {
  FEDRA_EXPECTS(start >= 0.0);
  FEDRA_EXPECTS(duration >= 0.0);
  if (duration == 0.0) return trace;
  FEDRA_EXPECTS(duration < trace.duration());

  const double dt = trace.resolution();
  const std::size_t n = trace.num_samples();
  std::vector<double> samples = trace.samples();
  const double local = std::fmod(start, trace.duration());
  const auto first = static_cast<std::size_t>(local / dt) % n;
  // Every sample bin [j*dt, (j+1)*dt) that intersects the window goes
  // dark; ceil() so a window ending mid-bin silences that bin too.
  const auto touched = std::min<std::size_t>(
      n - 1, static_cast<std::size_t>(
                 std::ceil((local - std::floor(local / dt) * dt + duration) /
                           dt)));
  for (std::size_t k = 0; k < touched; ++k) {
    samples[(first + k) % n] = 0.0;
  }
  double remaining = 0.0;
  for (double s : samples) remaining += s;
  // The outage must not silence the entire trace (upload_finish_time
  // requires positive mean bandwidth).
  FEDRA_EXPECTS(remaining > 0.0);
  return BandwidthTrace(std::move(samples), dt);
}

}  // namespace fedra
