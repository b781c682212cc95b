// StepOptions — the one options bag behind the unified simulator API.
//
// The simulator surface used to accrete overloads as scenarios grew:
// step(freqs), step(freqs, participating), preview(freqs, start_time)...
// Every new axis (deadlines, faults) would have doubled that set again.
// Instead, one entry point takes the frequency vector plus a StepOptions:
//
//   sim.step(freqs, {});                                  // plain round
//   sim.step(freqs, StepOptions::with_participants(mask)); // fleet cohort
//   sim.step(freqs, {.deadline = 15.0});                   // server timeout
//   sim.step(freqs, {.fault_model = &faults});             // churn injection
//   sim.preview(freqs, StepOptions::dry_run(t));           // no state change
//
// Fleet-scale knobs ride in the same bag: `outcomes` picks whether per-device
// rows are stored (rows / summary) and `pool` supplies the thread pool the
// blocked round engine shards across.
#pragma once

#include <optional>
#include <vector>

#include "fault/fault_model.hpp"
#include "sim/cost_model.hpp"

namespace fedra {

class ThreadPool;

struct StepOptions {
  /// Participation mask (the fleet cohort): devices with a false entry sit
  /// the round out entirely. Non-owning; must outlive the call. nullptr =
  /// everyone participates. At least one entry must be true.
  const std::vector<bool>* participating = nullptr;

  /// Round deadline tau_round in seconds, measured from the round start:
  /// a device still running at the deadline is timed out — its update is
  /// lost, the energy it actually spent (compute, upload attempts) is
  /// still charged, and it stops gating the barrier beyond the deadline.
  /// <= 0 means no deadline.
  double deadline = 0.0;

  /// Fault model drawn against the simulator's iteration counter. A real
  /// step() advances the model's crash chain; preview()/dry runs only
  /// peek. nullptr or a disabled model = fault-free round.
  fault::FaultModel* fault_model = nullptr;

  /// Explicit fault assignment for this round (overrides fault_model) —
  /// the hook tests use to inject exact failure scenarios. Non-owning;
  /// must match num_devices().
  const fault::RoundFaults* faults = nullptr;

  /// When set, the round is computed from this start time WITHOUT
  /// advancing the clock, the iteration counter, or the fault model
  /// (what preview(freqs, start_time) used to do).
  std::optional<double> dry_run_at;

  /// Whether the result stores per-device outcomes. kRows fills
  /// IterationResult::devices with one row per device; kSummary skips
  /// per-device storage entirely (the cheapest way to price a
  /// million-device round). Aggregates, cost and reward are bit-identical
  /// across both.
  OutcomeLayout outcomes = OutcomeLayout::kRows;

  /// Thread pool the round engine shards device blocks across (results
  /// are bit-identical for every pool size, including 1). nullptr = the
  /// process-wide global_pool(). Non-owning.
  ThreadPool* pool = nullptr;

  /// Convenience: options with only a participation mask (the old
  /// step(freqs, participating) call).
  static StepOptions with_participants(const std::vector<bool>& mask) {
    StepOptions opts;
    opts.participating = &mask;
    return opts;
  }

  /// Convenience: options for a preview at `start_time` (the old
  /// preview(freqs, start_time) call).
  static StepOptions dry_run(double start_time) {
    StepOptions opts;
    opts.dry_run_at = start_time;
    return opts;
  }
};

}  // namespace fedra
