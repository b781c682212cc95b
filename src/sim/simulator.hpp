// Synchronized federated-learning iteration engine (the paper's "federated
// learning system" box in Fig. 5, minus the actual model training — that
// lives in fedra::fl and can be attached via examples).
//
// Each step() takes the controller's frequency vector, plays one iteration
// against the bandwidth traces, and returns every quantity of the system
// model: per-device compute/upload/idle times, energies, the iteration
// makespan T^k (Eq. 5), the cost (Eq. 9) and the reward (Eq. 13). Upload
// completion is solved exactly from the trace integral (Eq. 3): device i's
// upload starts at t^k + t_cmp and finishes when xi bytes have flowed.
//
// Everything beyond the frequency vector rides in StepOptions: the
// participation mask (the fleet cohort), the round deadline tau (devices
// still running at t^k + tau are timed out and excluded from the barrier),
// fault injection, dry runs, outcome layout and the pricing thread pool.
// (The pre-StepOptions step(freqs) / step(freqs, participating) /
// preview(freqs, start_time) wrappers completed their deprecation cycle
// and are gone.)
#pragma once

#include <cstddef>
#include <vector>

#include "sim/cost_model.hpp"
#include "sim/device.hpp"
#include "sim/simulator_base.hpp"
#include "sim/step_options.hpp"
#include "trace/bandwidth_trace.hpp"

namespace fedra {

class FlSimulator : public SimulatorBase {
 public:
  /// One trace per device; devices.size() == traces.size().
  FlSimulator(std::vector<DeviceProfile> devices,
              std::vector<BandwidthTrace> traces, CostParams params,
              double start_time = 0.0);

  /// Fleet-scale construction: SoA device columns plus a shared-pool trace
  /// table (no per-device trace copies).
  FlSimulator(FleetState fleet, TraceTable traces, CostParams params,
              double start_time = 0.0);

  /// Runs one synchronized iteration. The round closes when every
  /// scheduled device has delivered its update or definitively failed
  /// (crash / dropout / deadline / retry exhaustion); the makespan is the
  /// latest of those resolution times.
  IterationResult step(const std::vector<double>& freqs_hz,
                       const StepOptions& options) override;

  /// Predicts a round WITHOUT advancing the clock, the iteration counter,
  /// or the fault model's crash chain. Starts at options.dry_run_at if
  /// set, else at now().
  IterationResult preview(const std::vector<double>& freqs_hz,
                          StepOptions options) const override;
};

}  // namespace fedra
