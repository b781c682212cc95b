#include "sim/simulator.hpp"

#include "obs/ledger.hpp"
#include "obs/record_builders.hpp"
#include "telemetry/telemetry.hpp"

namespace fedra {

namespace {
namespace tel = fedra::telemetry;

// Simulated quantities (seconds / joules), not wall-clock: geometric
// buckets from 1ms-equivalent up so both the 0.1s testbed iterations and
// multi-minute straggler rounds resolve.
std::vector<double> sim_bounds() {
  return tel::exponential_bounds(1e-3, 2.0, 36);
}

struct SimMetrics {
  tel::Counter iterations =
      tel::Telemetry::metrics().counter("sim.iterations");
  tel::Histogram iter_time_s =
      tel::Telemetry::metrics().histogram("sim.iter_time_s", sim_bounds());
  tel::Histogram compute_time_s = tel::Telemetry::metrics().histogram(
      "sim.device_compute_time_s", sim_bounds());
  tel::Histogram comm_time_s = tel::Telemetry::metrics().histogram(
      "sim.device_comm_time_s", sim_bounds());
  tel::Histogram iter_energy_j = tel::Telemetry::metrics().histogram(
      "sim.iter_energy_j", sim_bounds());
  tel::Histogram device_energy_j = tel::Telemetry::metrics().histogram(
      "sim.device_energy_j", sim_bounds());
  tel::Histogram step_us =
      tel::Telemetry::metrics().histogram("sim.step_us");
  // Fault surface: how often the barrier loses devices, and to what.
  tel::Counter dropped_devices =
      tel::Telemetry::metrics().counter("sim.fault.dropped_devices");
  tel::Counter timeouts =
      tel::Telemetry::metrics().counter("sim.fault.timeouts");
  tel::Counter crashes =
      tel::Telemetry::metrics().counter("sim.fault.crashes");
  tel::Counter upload_failures =
      tel::Telemetry::metrics().counter("sim.fault.upload_failures");
  tel::Counter retries =
      tel::Telemetry::metrics().counter("sim.fault.retries");
  tel::Counter partial_rounds =
      tel::Telemetry::metrics().counter("sim.fault.partial_rounds");
};

SimMetrics& sim_metrics() {
  static SimMetrics m;
  return m;
}

void record_iteration(const IterationResult& result) {
  auto& m = sim_metrics();
  m.iterations.add();
  m.iter_time_s.record(result.iteration_time);
  m.iter_energy_j.record(result.total_energy);
  for (const DeviceOutcome& out : result.devices) {
    if (!out.participated) continue;
    m.compute_time_s.record(out.compute_time);
    m.comm_time_s.record(out.comm_time);
    m.device_energy_j.record(out.energy);
  }
  if (result.num_dropouts > 0) m.dropped_devices.add(result.num_dropouts);
  if (result.num_timeouts > 0) m.timeouts.add(result.num_timeouts);
  if (result.num_crashes > 0) m.crashes.add(result.num_crashes);
  if (result.num_upload_failures > 0) {
    m.upload_failures.add(result.num_upload_failures);
  }
  if (result.total_retries > 0) m.retries.add(result.total_retries);
  if (result.partial()) m.partial_rounds.add();
}
}  // namespace

FlSimulator::FlSimulator(std::vector<DeviceProfile> devices,
                         std::vector<BandwidthTrace> traces, CostParams params,
                         double start_time)
    : SimulatorBase(std::move(devices), std::move(traces), params,
                    start_time) {}

FlSimulator::FlSimulator(FleetState fleet, TraceTable traces,
                         CostParams params, double start_time)
    : SimulatorBase(std::move(fleet), std::move(traces), params, start_time) {}

IterationResult FlSimulator::step(const std::vector<double>& freqs_hz,
                                  const StepOptions& options) {
  if (options.dry_run_at.has_value()) return preview(freqs_hz, options);
  tel::ScopedTimer timer(tel::Telemetry::enabled() ? sim_metrics().step_us
                                                   : tel::Histogram{});
  IterationResult result = compute_round(freqs_hz, options, /*advance=*/true,
                                         now_, /*barrier_idle=*/true);
  // Constraint (11): t^{k+1} = t^k + T^k.
  now_ += result.iteration_time;
  ++iteration_;
  FEDRA_TELEMETRY_IF {
    record_iteration(result);
    if (obs::RunLedger::enabled()) {
      obs::RunLedger::record_round(
          obs::make_round_record(iteration_ - 1, result, params(), "sim"));
    }
  }
  return result;
}

IterationResult FlSimulator::preview(const std::vector<double>& freqs_hz,
                                     StepOptions options) const {
  const double start_time = options.dry_run_at.value_or(now_);
  FEDRA_EXPECTS(start_time >= 0.0);
  return compute_round(freqs_hz, options, /*advance=*/false, start_time,
                       /*barrier_idle=*/true);
}

}  // namespace fedra
