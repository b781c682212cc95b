#include "obs/attribution.hpp"

#include <algorithm>
#include <cmath>

namespace fedra::obs {

const char* bottleneck_name(BottleneckPhase phase) {
  switch (phase) {
    case BottleneckPhase::kNone: return "none";
    case BottleneckPhase::kCompute: return "compute";
    case BottleneckPhase::kComm: return "comm";
  }
  return "none";
}

RunAttribution attribute(const Ledger& ledger) {
  RunAttribution run;
  run.rounds.reserve(ledger.rounds.size());

  std::size_t max_device = 0;
  for (const RoundRecord& round : ledger.rounds) {
    for (const DeviceRoundRecord& d : round.devices) {
      max_device = std::max(max_device, std::size_t{d.device} + 1);
    }
  }
  run.devices.resize(max_device);

  double cum_cost = 0.0;
  double cum_time = 0.0;
  double cum_energy = 0.0;
  for (const RoundRecord& round : ledger.rounds) {
    RoundAttribution a;
    a.round = round.round;
    a.time_term = round.time_term;
    a.energy_term = round.energy_term;
    a.cost = round.cost;
    a.failures = round.num_scheduled >= round.num_completed
                     ? round.num_scheduled - round.num_completed
                     : 0;

    // The straggler is the participating device with the longest active
    // time (compute + comm): by Eq. 5 its T_i IS the round makespan under
    // the barrier, and for async rounds it is still the device that
    // dominated this step's window.  Ties break toward the lower id so
    // attribution is deterministic.
    double best_time = -1.0;
    const DeviceRoundRecord* straggler = nullptr;
    for (const DeviceRoundRecord& d : round.devices) {
      if (!d.participated) continue;
      const double active = d.compute_time + d.comm_time;
      if (active > best_time) {
        best_time = active;
        a.straggler = static_cast<int>(d.device);
        straggler = &d;
      }
      DeviceProfile& profile = run.devices[d.device];
      ++profile.rounds_participated;
      if (!d.completed) ++profile.failures;
      profile.total_energy += d.energy;
      profile.total_compute_time += d.compute_time;
      profile.total_comm_time += d.comm_time;
      profile.total_idle_time += d.idle_time;
    }
    if (straggler != nullptr) {
      a.straggler_time = best_time;
      const double active = straggler->compute_time + straggler->comm_time;
      a.compute_share = active > 0.0 ? straggler->compute_time / active : 0.0;
      a.bottleneck = straggler->compute_time >= straggler->comm_time
                         ? BottleneckPhase::kCompute
                         : BottleneckPhase::kComm;
      run.devices[static_cast<std::size_t>(a.straggler)].straggler_rounds++;
      if (a.bottleneck == BottleneckPhase::kCompute) {
        ++run.compute_bound_rounds;
      } else {
        ++run.comm_bound_rounds;
      }
    }

    cum_cost += round.cost;
    cum_time += round.time_term;
    cum_energy += round.energy_term;
    a.cum_cost = cum_cost;
    a.cum_time_term = cum_time;
    a.cum_energy_term = cum_energy;
    run.total_failures += a.failures;
    run.rounds.push_back(std::move(a));
  }
  run.total_cost = cum_cost;
  run.total_time_term = cum_time;
  run.total_energy_term = cum_energy;

  run.predictions.reserve(ledger.decisions.size());
  double abs_error_sum = 0.0;
  for (const DecisionRecord& decision : ledger.decisions) {
    PredictionPoint p;
    p.round = decision.round;
    p.source = decision.source;
    p.predicted = decision.predicted_cost;
    p.realized = decision.realized_cost;
    p.error = decision.realized_cost - decision.predicted_cost;
    abs_error_sum += std::fabs(p.error);
    run.predictions.push_back(std::move(p));
  }
  if (!run.predictions.empty()) {
    run.mean_abs_prediction_error =
        abs_error_sum / static_cast<double>(run.predictions.size());
  }
  return run;
}

}  // namespace fedra::obs
