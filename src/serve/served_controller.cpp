#include "serve/served_controller.hpp"

#include <utility>

#include "obs/ledger.hpp"
#include "telemetry/telemetry.hpp"
#include "util/contracts.hpp"

namespace fedra::serve {

ServedDrlController::ServedDrlController(SessionManager& sessions,
                                         FlEnvConfig env_config,
                                         double bandwidth_ref)
    : sessions_(sessions),
      session_id_(sessions.open()),
      env_config_(env_config),
      bandwidth_ref_(bandwidth_ref) {
  FEDRA_EXPECTS(bandwidth_ref > 0.0);
}

ServedDrlController::~ServedDrlController() {
  sessions_.close(session_id_);
}

std::vector<double> ServedDrlController::decide(const SimulatorBase& sim) {
  namespace tel = fedra::telemetry;
  tel::Histogram decide_hist;
  FEDRA_TELEMETRY_IF {
    static const auto h =
        tel::Telemetry::metrics().histogram("serve.ctl.decide_us");
    decide_hist = h;
  }
  tel::ScopedTimer timer(decide_hist);
  const auto state =
      bandwidth_history_state(sim, sim.now(), env_config_, bandwidth_ref_);

  DecideResult res = sessions_.decide(session_id_, state);
  last_status_ = res.status;
  std::vector<double> freqs(sim.num_devices());
  if (res.ok()) {
    FEDRA_ENSURES(res.action.size() == sim.num_devices());
    for (std::size_t i = 0; i < freqs.size(); ++i) {
      freqs[i] = res.action[i] * sim.fleet().max_freq_hz(i);
    }
    last_freqs_ = freqs;
  } else {
    // Degrade, don't block: reuse the previous decision, or run every
    // device flat-out before the first one (always feasible).
    ++fallbacks_;
    if (last_freqs_.size() == freqs.size()) {
      freqs = last_freqs_;
    } else {
      for (std::size_t i = 0; i < freqs.size(); ++i) {
        freqs[i] = sim.fleet().max_freq_hz(i);
      }
      last_freqs_ = freqs;
    }
  }

  if (obs::RunLedger::enabled()) {
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

void ServedDrlController::observe(const IterationResult& result) {
  if (pending_.valid) {
    pending_.valid = false;
    if (obs::RunLedger::enabled()) {
      obs::DecisionRecord decision;
      decision.round = decision_round_;
      decision.source = "serve";
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

}  // namespace fedra::serve
