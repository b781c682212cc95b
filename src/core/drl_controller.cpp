#include "core/drl_controller.hpp"

#include <utility>

#include "obs/ledger.hpp"
#include "telemetry/telemetry.hpp"
#include "util/contracts.hpp"

namespace fedra {

DrlController::DrlController(PpoAgent& agent, FlEnvConfig env_config,
                             double bandwidth_ref)
    : agent_(agent), env_config_(env_config), bandwidth_ref_(bandwidth_ref) {
  FEDRA_EXPECTS(bandwidth_ref > 0.0);
}

std::vector<double> DrlController::decide(const SimulatorBase& sim) {
  // Online action-selection latency: this is the paper's deployed
  // decision path, the one place inference speed matters in production.
  namespace tel = fedra::telemetry;
  tel::Histogram decide_hist;
  FEDRA_TELEMETRY_IF {
    static const auto h =
        tel::Telemetry::metrics().histogram("ctl.decide_us");
    decide_hist = h;
  }
  tel::ScopedTimer timer(decide_hist);
  const auto state =
      bandwidth_history_state(sim, sim.now(), env_config_, bandwidth_ref_);
  const auto fractions = agent_.mean_action(state);
  FEDRA_ENSURES(fractions.size() == sim.num_devices());
  std::vector<double> freqs(fractions.size());
  for (std::size_t i = 0; i < fractions.size(); ++i) {
    freqs[i] = fractions[i] * sim.fleet().max_freq_hz(i);
  }
  if (obs::RunLedger::enabled()) {
    // Stash the decision; the matching observe() closes the record with
    // the realized outcome. The prediction is a fault-free preview so
    // the gap to the realized cost isolates fault-driven cost.
    pending_.valid = true;
    pending_.state = state;
    pending_.freqs_hz = freqs;
    const IterationResult predicted = sim.preview(freqs, StepOptions{});
    pending_.predicted_time = predicted.iteration_time;
    pending_.predicted_energy = predicted.total_energy;
    pending_.predicted_cost = predicted.cost;
  }
  return freqs;
}

void DrlController::observe(const IterationResult& result) {
  if (pending_.valid) {
    pending_.valid = false;
    if (obs::RunLedger::enabled()) {
      obs::DecisionRecord decision;
      decision.round = decision_round_;
      decision.source = "ctl";
      decision.state = std::move(pending_.state);
      decision.action = std::move(pending_.freqs_hz);
      decision.predicted_time = pending_.predicted_time;
      decision.predicted_energy = pending_.predicted_energy;
      decision.predicted_cost = pending_.predicted_cost;
      decision.realized_time = result.iteration_time;
      decision.realized_energy = result.total_energy;
      decision.realized_cost = result.cost;
      decision.reward = result.reward;
      obs::RunLedger::record_decision(decision);
    }
  }
  ++decision_round_;
}

}  // namespace fedra
