// The paper's objective (Eq. 9) and reward (Eq. 13) as plain functions over
// per-iteration outcomes, plus the container those outcomes live in.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/device.hpp"

namespace fedra {

/// Knobs of the optimization problem (Section III-B).
struct CostParams {
  /// lambda — weight of total energy against iteration time in Eq. (9).
  double lambda = 0.1;
  /// tau — local training passes per iteration.
  double tau = 1.0;
  /// xi — model size uploaded each iteration, in BYTES (traces are
  /// bytes/second).
  double model_bytes = 10e6;
};

/// How a scheduled device failed to deliver its update (kNone = it did).
enum class DeviceFailure : std::uint8_t {
  kNone = 0,
  kCrash,    ///< down for the whole round (crash-and-rejoin chain)
  kDropout,  ///< vanished mid-round
  kTimeout,  ///< still running at the round deadline
  kUpload,   ///< every upload attempt failed (retries exhausted)
};

/// Whether a round stores its per-device outcomes. Row structs are what
/// every controller, selector and report reads; a 1M-device round that
/// needs only the aggregates can skip them.
enum class OutcomeLayout : std::uint8_t {
  kRows = 0,  ///< IterationResult::devices (one DeviceOutcome per device)
  kSummary,   ///< aggregates only; IterationResult::devices stays empty
};

/// Outcome of one device in one federated iteration.
struct DeviceOutcome {
  /// False when the device was excluded from the round (outside the
  /// fleet cohort); all time/energy fields are zero in that case.
  bool participated = true;
  /// True when the device's update reached the server. Scheduled devices
  /// that crash, drop out, time out, or exhaust upload retries have
  /// completed == false with `failure` saying why — but are still charged
  /// the time and energy they actually spent.
  bool completed = true;
  DeviceFailure failure = DeviceFailure::kNone;
  std::size_t retries = 0;    ///< upload re-attempts after a failure
  double freq_hz = 0.0;       ///< delta_i^k chosen by the controller
  double compute_time = 0.0;  ///< t_cmp (Eq. 1)
  double comm_time = 0.0;     ///< t_com realized from the trace (Eq. 2/3)
  double total_time = 0.0;    ///< T_i = t_cmp + t_com (Eq. 4)
  double idle_time = 0.0;     ///< T^k - T_i (waiting for the straggler)
  double compute_energy = 0.0;
  double comm_energy = 0.0;
  double energy = 0.0;        ///< E_i (Eq. 6)
  double avg_bandwidth = 0.0; ///< B_i^k — realized mean upload speed (Eq. 3)
};

/// Outcome of one full synchronized iteration.
struct IterationResult {
  double start_time = 0.0;      ///< t^k
  double iteration_time = 0.0;  ///< T^k = max_i T_i (Eq. 5)
  double total_energy = 0.0;    ///< sum_i E_i
  double total_compute_energy = 0.0;
  double cost = 0.0;            ///< T^k + lambda * sum_i E_i (Eq. 9 summand)
  double reward = 0.0;          ///< -cost (Eq. 13)
  /// One outcome per device; empty when the round ran with
  /// OutcomeLayout::kSummary.
  std::vector<DeviceOutcome> devices;

  // Fault/straggler accounting (all zero on a clean full round).
  std::size_t num_scheduled = 0;  ///< participating devices
  std::size_t num_completed = 0;  ///< updates that reached the server
  std::size_t num_crashes = 0;
  std::size_t num_dropouts = 0;
  std::size_t num_timeouts = 0;
  std::size_t num_upload_failures = 0;  ///< retries exhausted
  std::size_t total_retries = 0;

  /// True when at least one scheduled update went missing (the rounds
  /// FedAvg must partially aggregate).
  bool partial() const { return num_completed < num_scheduled; }
};

/// Eq. (9) single-iteration cost.
double iteration_cost(double iteration_time, double total_energy,
                      const CostParams& params);

/// Eq. (13): r_k = -T^k - lambda * sum_i E_i^k.
double iteration_reward(double iteration_time, double total_energy,
                        const CostParams& params);

}  // namespace fedra
