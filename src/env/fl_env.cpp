#include "env/fl_env.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "live/flight_recorder.hpp"
#include "obs/ledger.hpp"

namespace fedra {

std::size_t state_features_per_device(const FlEnvConfig& config) {
  return config.history_slots + 1 +
         (config.include_device_features ? 3 : 0) +
         (config.fault_aware_state ? 2 : 0);
}

std::vector<double> bandwidth_history_state(
    const SimulatorBase& sim, double now, const FlEnvConfig& config,
    double bandwidth_ref, const IterationResult* last_result) {
  FEDRA_EXPECTS(bandwidth_ref > 0.0);
  if (last_result != nullptr) {
    FEDRA_EXPECTS(last_result->devices.size() == sim.num_devices());
  }
  const auto now_slot =
      static_cast<long long>(std::floor(now / config.slot_seconds));
  std::vector<double> state;
  state.reserve(sim.num_devices() * state_features_per_device(config));
  for (std::size_t i = 0; i < sim.num_devices(); ++i) {
    const auto& trace = sim.trace(i);
    for (std::size_t j = 0; j <= config.history_slots; ++j) {
      const long long slot = now_slot - static_cast<long long>(j);
      state.push_back(trace.slot_average(slot, config.slot_seconds) /
                      bandwidth_ref);
    }
    if (config.include_device_features) {
      // Static per-device profile, scaled to O(1): compute volume per
      // round (cycles / 1e10), frequency cap (/ 2 GHz, the fleet-model
      // maximum), radio power (W, already O(1)).
      const DeviceProfile dev = sim.fleet().device(i);
      state.push_back(dev.cycles_per_round(sim.params().tau) / 1e10);
      state.push_back(dev.max_freq_hz / 2e9);
      state.push_back(dev.tx_power_w);
    }
    if (config.fault_aware_state) {
      // Delivery flag and retry load from the previous round. Neutral
      // defaults (delivered, no retries) before the first round and for
      // devices that sat the round out.
      double delivered = 1.0;
      double retry_load = 0.0;
      if (last_result != nullptr) {
        const DeviceOutcome& d = last_result->devices[i];
        if (d.participated) {
          delivered = d.completed ? 1.0 : 0.0;
          retry_load = std::min(1.0, static_cast<double>(d.retries) / 3.0);
        }
      }
      state.push_back(delivered);
      state.push_back(retry_load);
    }
  }
  return state;
}

FlEnv::FlEnv(FlSimulator simulator, FlEnvConfig config)
    : sim_(std::move(simulator)), config_(config) {
  FEDRA_EXPECTS(config_.slot_seconds > 0.0);
  FEDRA_EXPECTS(config_.episode_length > 0);
  FEDRA_EXPECTS(config_.reward_scale > 0.0);
  FEDRA_EXPECTS(config_.dropout_penalty >= 0.0);
  if (config_.bandwidth_ref > 0.0) {
    bandwidth_ref_ = config_.bandwidth_ref;
  } else {
    double ref = 0.0;
    for (const auto& t : sim_.trace_table().pool()) {
      ref = std::max(ref, t.max_bandwidth());
    }
    bandwidth_ref_ = std::max(ref, 1.0);
  }
}

std::vector<double> FlEnv::reset(Rng& rng) {
  // Random start phase within one trace period. Traces are periodic, so
  // any non-negative time works; staying inside [0, period) keeps slot
  // indices small.
  const double period = sim_.trace(0).duration();
  return reset_at(rng.uniform(0.0, period));
}

std::vector<double> FlEnv::reset_at(double start_time) {
  sim_.reset(start_time);
  fault_model_.reset();
  steps_in_episode_ = 0;
  has_result_ = false;
  return observe();
}

std::vector<double> FlEnv::observe() const {
  // s_k: per device, slot averages at slots floor(t/h), ..., floor(t/h)-H
  // (paper Section IV-B1), most recent first.
  return bandwidth_history_state(sim_, sim_.now(), config_, bandwidth_ref_,
                                 has_result_ ? &last_result_ : nullptr);
}

StepResult FlEnv::step(const std::vector<double>& action) {
  FEDRA_EXPECTS(action.size() == action_dim());
  // Always-on black box: one ring slot per environment step, so a crash
  // mid-training shows which round every thread was in. Costs one clock
  // read + a few relaxed stores; the bench_obs recorder leg pins it ≤5%
  // of a step.
  live::record_event("env.step", sim_.iteration());
  const auto caps = max_freqs();
  std::vector<double> freqs(action.size());
  for (std::size_t i = 0; i < action.size(); ++i) {
    // Fraction -> Hz; the simulator applies its own floor/cap clamping.
    freqs[i] = action[i] * caps[i];
  }
  StepOptions options;
  options.deadline = config_.round_deadline;
  options.fault_model = fault_model_.enabled() ? &fault_model_ : nullptr;

  // Ledger decision record: capture what the agent saw and what a
  // fault-free preview() of its action predicts, before the step advances
  // the clock. With the ledger off the hot path stays a single branch
  // (and allocation-free).
  obs::DecisionRecord decision;
  const bool ledger_on = obs::RunLedger::enabled();
  if (ledger_on) {
    decision.round = sim_.iteration();
    decision.source = "env";
    decision.state = observe();
    decision.action = action;
    StepOptions predict_options = options;
    predict_options.fault_model = nullptr;  // predict the fault-free round
    const IterationResult predicted = sim_.preview(freqs, predict_options);
    decision.predicted_time = predicted.iteration_time;
    decision.predicted_energy = predicted.total_energy;
    decision.predicted_cost = predicted.cost;
  }

  StepResult r;
  r.info = sim_.step(freqs, options);
  double reward = r.info.reward;
  if (config_.dropout_penalty > 0.0) {
    reward -= config_.dropout_penalty *
              static_cast<double>(r.info.num_failed());
  }
  r.reward = reward * config_.reward_scale;

  if (ledger_on) {
    decision.realized_time = r.info.iteration_time;
    decision.realized_energy = r.info.total_energy;
    decision.realized_cost = r.info.cost;
    decision.reward = r.reward;
    obs::RunLedger::record_decision(decision);
  }

  last_result_ = r.info;
  has_result_ = true;
  ++steps_in_episode_;
  r.done = steps_in_episode_ >= config_.episode_length;
  r.state = observe();
  return r;
}

void FlEnv::restore_episode(std::size_t steps_in_episode, bool has_result,
                            IterationResult last_result) {
  FEDRA_EXPECTS(!has_result ||
                last_result.devices.size() == sim_.num_devices());
  steps_in_episode_ = steps_in_episode;
  has_result_ = has_result;
  last_result_ = std::move(last_result);
}

std::vector<double> FlEnv::max_freqs() const {
  const FleetView fleet = sim_.fleet();
  std::vector<double> caps;
  caps.reserve(fleet.size());
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    caps.push_back(fleet.max_freq_hz(i));
  }
  return caps;
}

}  // namespace fedra
