// Asynchronous federated learning — the counterfactual to the paper's
// synchronized barrier (the paper adopts sync citing Chen et al. [14];
// run_async makes that design choice measurable).
//
// In async mode every device loops independently: pull the latest global
// model, train tau passes at its frequency, upload, repeat — no barrier,
// no idle time. The server version-stamps the global model; an update
// computed against version v and applied at version v' has staleness
// v' - v. Event-driven simulation over the device profiles, bandwidth
// traces and cost parameters of a synchronous simulator.
#pragma once

#include <cstddef>
#include <vector>

#include "sim/simulator_base.hpp"

namespace fedra {

/// One completed async update.
struct AsyncUpdateEvent {
  double time = 0.0;          ///< server-side arrival time
  std::size_t device = 0;
  std::size_t based_on_version = 0;  ///< global version the device pulled
  std::size_t applied_version = 0;   ///< version right before applying
  std::size_t staleness = 0;         ///< applied - based_on
  double compute_time = 0.0;
  double comm_time = 0.0;
  double energy = 0.0;        ///< E for this cycle (compute + upload)
};

struct AsyncRunResult {
  std::vector<AsyncUpdateEvent> events;  ///< sorted by arrival time
  double horizon = 0.0;
  double total_energy = 0.0;
  std::vector<std::size_t> updates_per_device;

  double updates_per_second() const {
    return horizon > 0.0 ? static_cast<double>(events.size()) / horizon
                         : 0.0;
  }
  double mean_staleness() const;
};

/// Simulates every device of `sim` looping independently at the given
/// frequencies from t = 0 until `horizon` seconds. Updates completing
/// after the horizon are discarded (their energy is not charged). Reads
/// only the fleet, traces and cost parameters of `sim`, never its clock.
AsyncRunResult run_async(const SimulatorBase& sim,
                         const std::vector<double>& freqs_hz, double horizon);

}  // namespace fedra
