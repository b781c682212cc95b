// DrlController's served variant: the same online-reasoning contract
// (build the bandwidth-history state, ask the actor for the mean action,
// scale to Hz), but the actor lives behind a shared InferenceEngine —
// many federations' controllers multiplex one policy, and their decide()
// calls coalesce into batched forward passes.
//
// Backpressure contract: decide() must always return usable frequencies.
// When the engine sheds (kOverloaded), expires the request
// (kDeadlineExceeded), or is shutting down, the controller degrades to
// its previous decision (or every device's max frequency before any
// decision) and counts the fallback — the federation keeps stepping at a
// stale-but-valid operating point instead of blocking on an overloaded
// controller tier. Per-row bit-exactness of the engine makes the served
// controller's kOk decisions bit-identical to an in-process
// DrlController over the same agent (tests/test_serve.cpp pins this).
#pragma once

#include <cstdint>

#include "env/fl_env.hpp"
#include "sched/controller.hpp"
#include "serve/session.hpp"

namespace fedra::serve {

class ServedDrlController final : public Controller {
 public:
  /// Opens a session on `sessions` (closed by the destructor).
  /// `env_config` / `bandwidth_ref` must match the served agent's
  /// training-time configuration, exactly as for DrlController.
  ServedDrlController(SessionManager& sessions, FlEnvConfig env_config,
                      double bandwidth_ref);
  ~ServedDrlController() override;

  ServedDrlController(const ServedDrlController&) = delete;
  ServedDrlController& operator=(const ServedDrlController&) = delete;

  std::vector<double> decide(const SimulatorBase& sim) override;
  void observe(const IterationResult& result) override;
  std::string name() const override { return "drl-serve"; }

  std::uint64_t session_id() const { return session_id_; }
  DecideStatus last_status() const { return last_status_; }
  /// decide() calls answered by the fallback instead of the engine.
  std::uint64_t fallbacks() const { return fallbacks_; }

 private:
  SessionManager& sessions_;
  std::uint64_t session_id_ = 0;
  FlEnvConfig env_config_;
  double bandwidth_ref_;
  std::vector<double> last_freqs_;  ///< backpressure fallback
  DecideStatus last_status_ = DecideStatus::kOk;
  std::uint64_t fallbacks_ = 0;

  // Run-ledger decision records (source "serve"), mirroring
  // DrlController's pending/observe pairing.
  struct PendingDecision {
    bool valid = false;
    std::vector<double> state;
    std::vector<double> freqs_hz;
    double predicted_time = 0.0;
    double predicted_energy = 0.0;
    double predicted_cost = 0.0;
  };
  PendingDecision pending_;
  std::size_t decision_round_ = 0;
};

}  // namespace fedra::serve
