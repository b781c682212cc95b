// The trained DRL agent as a Controller (online reasoning, Section V-B2):
// build the bandwidth-history state from the simulator clock, feed it to
// the actor network, and emit the mean action as per-device frequencies.
// Only the actor is consulted — the critic exists solely for training.
#pragma once

#include "env/fl_env.hpp"
#include "rl/ppo.hpp"
#include "sched/controller.hpp"

namespace fedra {

class DrlController final : public Controller {
 public:
  /// Non-owning: `agent` must outlive the controller. `env_config` and
  /// `bandwidth_ref` must match what the agent was trained with (slot
  /// width, history depth, state scaling).
  DrlController(PpoAgent& agent, FlEnvConfig env_config,
                double bandwidth_ref);

  std::vector<double> decide(const SimulatorBase& sim) override;
  void observe(const IterationResult& result) override;
  std::string name() const override { return "drl"; }

 private:
  PpoAgent& agent_;
  FlEnvConfig env_config_;
  double bandwidth_ref_;

  // Run-ledger support (only populated while the ledger is enabled): the
  // state/action/predicted-cost of the pending decide(), matched with the
  // realized outcome in the next observe().
  struct PendingDecision {
    bool valid = false;
    std::vector<double> state;
    std::vector<double> freqs_hz;
    double predicted_time = 0.0;
    double predicted_energy = 0.0;
    double predicted_cost = 0.0;
  };
  PendingDecision pending_;
  std::size_t decision_round_ = 0;  ///< counts this controller's decisions
};

}  // namespace fedra
