// Bridges simulator outcome types to ledger records.
//
// Header-only on purpose: fedra_obs must not link against fedra_sim (the
// simulator links against obs to emit records, and a cycle would follow).
// These builders only read plain data members of IterationResult /
// CostParams, so including the sim headers costs an include path, not a
// link dependency.
#pragma once

#include <algorithm>
#include <cstdint>

#include "obs/ledger.hpp"
#include "sim/cost_model.hpp"

namespace fedra::obs {

inline const char* device_failure_name(DeviceFailure failure) {
  switch (failure) {
    case DeviceFailure::kNone: return "none";
    case DeviceFailure::kCrash: return "crash";
    case DeviceFailure::kDropout: return "dropout";
    case DeviceFailure::kTimeout: return "timeout";
    case DeviceFailure::kUpload: return "upload";
  }
  return "none";
}

/// Builds one ledger round record from a step() result.  `time_term` and
/// `energy_term` reproduce iteration_cost()'s two addends exactly: the
/// cost is computed as iteration_time + lambda * total_energy with no
/// fused contraction, so time_term + energy_term == cost bit-for-bit.
///
/// Per-device rows are copied from IterationResult::devices and capped at
/// kMaxDeviceRows; rows past the cap — and every scheduled device of a
/// summary-only result — are counted in RoundRecord::devices_omitted
/// instead of being materialized.
inline RoundRecord make_round_record(std::size_t round,
                                     const IterationResult& result,
                                     const CostParams& params,
                                     const char* source) {
  RoundRecord r;
  r.round = round;
  r.source = source;
  r.start_time = result.start_time;
  r.iteration_time = result.iteration_time;
  r.total_energy = result.total_energy;
  r.time_term = result.iteration_time;
  r.energy_term = params.lambda * result.total_energy;
  r.cost = result.cost;
  r.reward = result.reward;
  r.num_scheduled = result.num_scheduled;
  r.num_completed = result.num_completed;
  r.num_crashes = result.num_crashes;
  r.num_dropouts = result.num_dropouts;
  r.num_timeouts = result.num_timeouts;
  r.num_upload_failures = result.num_upload_failures;
  r.total_retries = result.total_retries;
  if (result.devices.empty()) {
    // Summary layout: the per-device rows were never stored.
    r.devices_omitted = result.num_scheduled;
    return r;
  }
  const std::size_t slots = result.devices.size();
  const std::size_t rows = std::min(slots, kMaxDeviceRows);
  r.devices_omitted = slots - rows;
  r.devices.reserve(rows);
  for (std::size_t i = 0; i < rows; ++i) {
    const DeviceOutcome& out = result.devices[i];
    DeviceRoundRecord d;
    d.device = static_cast<std::uint32_t>(i);
    d.participated = out.participated;
    d.completed = out.completed;
    d.failure = device_failure_name(out.failure);
    d.retries = static_cast<std::uint32_t>(out.retries);
    d.freq_hz = out.freq_hz;
    d.compute_time = out.compute_time;
    d.comm_time = out.comm_time;
    d.idle_time = out.idle_time;
    d.compute_energy = out.compute_energy;
    d.comm_energy = out.comm_energy;
    d.energy = out.energy;
    d.avg_bandwidth = out.avg_bandwidth;
    r.devices.push_back(std::move(d));
  }
  return r;
}

}  // namespace fedra::obs
