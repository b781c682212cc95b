#include "sim/async_simulator.hpp"

#include <algorithm>
#include <queue>

#include "telemetry/telemetry.hpp"
#include "util/contracts.hpp"

namespace fedra {

double AsyncRunResult::mean_staleness() const {
  if (events.empty()) return 0.0;
  double acc = 0.0;
  for (const auto& e : events) acc += static_cast<double>(e.staleness);
  return acc / static_cast<double>(events.size());
}

AsyncRunResult run_async(const SimulatorBase& sim,
                         const std::vector<double>& freqs_hz, double horizon) {
  const std::size_t n = sim.num_devices();
  const CostParams& params = sim.params();
  FEDRA_EXPECTS(freqs_hz.size() == n);
  FEDRA_EXPECTS(horizon > 0.0);
  FEDRA_TRACE_SPAN("async_run");

  struct Pending {
    double finish;
    std::size_t device;
    std::size_t based_on_version;
    double compute_time;
    double comm_time;
    double energy;
    bool operator>(const Pending& other) const {
      return finish > other.finish;
    }
  };

  // Start every device's first cycle at t = 0 against version 0; each
  // completion immediately schedules the device's next cycle.
  const auto schedule = [&](std::size_t i, double start,
                            std::size_t version) -> Pending {
    const DeviceProfile dev = sim.fleet().device(i);
    const double floor_hz = SimulatorBase::kMinFreqFraction * dev.max_freq_hz;
    const double f = std::clamp(freqs_hz[i], floor_hz, dev.max_freq_hz);
    const double cmp = dev.compute_time(f, params.tau);
    const double upload_end =
        sim.trace(i).upload_finish_time(start + cmp, params.model_bytes);
    Pending p;
    p.finish = upload_end;
    p.device = i;
    p.based_on_version = version;
    p.compute_time = cmp;
    p.comm_time = upload_end - (start + cmp);
    p.energy = dev.compute_energy(f, params.tau) +
               dev.comm_energy(p.comm_time);
    return p;
  };

  std::priority_queue<Pending, std::vector<Pending>, std::greater<>> queue;
  for (std::size_t i = 0; i < n; ++i) {
    queue.push(schedule(i, 0.0, 0));
  }

  AsyncRunResult result;
  result.horizon = horizon;
  result.updates_per_device.assign(n, 0);
  std::size_t version = 0;
  while (!queue.empty()) {
    Pending p = queue.top();
    queue.pop();
    if (p.finish > horizon) continue;  // never completes inside the run

    AsyncUpdateEvent e;
    e.time = p.finish;
    e.device = p.device;
    e.based_on_version = p.based_on_version;
    e.applied_version = version;
    e.staleness = version - p.based_on_version;
    e.compute_time = p.compute_time;
    e.comm_time = p.comm_time;
    e.energy = p.energy;
    result.events.push_back(e);
    result.total_energy += p.energy;
    ++result.updates_per_device[p.device];

    ++version;  // the server integrates the update
    queue.push(schedule(p.device, p.finish, version));
  }
  // The priority queue pops in time order already, but make it explicit.
  std::sort(result.events.begin(), result.events.end(),
            [](const AsyncUpdateEvent& a, const AsyncUpdateEvent& b) {
              return a.time < b.time;
            });
  FEDRA_TELEMETRY_IF {
    namespace tel = fedra::telemetry;
    static auto updates =
        tel::Telemetry::metrics().counter("sim.async_updates");
    static auto staleness = tel::Telemetry::metrics().histogram(
        "sim.async_staleness", tel::exponential_bounds(1.0, 2.0, 16));
    updates.add(result.events.size());
    for (const auto& e : result.events) {
      staleness.record(static_cast<double>(e.staleness));
    }
  }
  return result;
}

}  // namespace fedra
