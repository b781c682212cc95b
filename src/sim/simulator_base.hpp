// SimulatorBase — the surface controllers see of the synchronous FL
// simulator, plus the one round engine it runs through.
//
// Controllers, selectors, and the evaluation harness program against this
// base (or against the SteppableSimulator concept for code that copies
// simulators by value), so a policy written once runs unchanged against
// FlSimulator and any simulator derived from it:
//
//   now()/iteration()/reset()  — simulation clock and round counter;
//   step(freqs, StepOptions)   — one round: participation mask, round
//                                deadline, fault injection, dry runs all
//                                ride in the options bag;
//   preview(freqs, StepOptions)— the same round computed WITHOUT touching
//                                simulator or fault-model state;
//   fleet()/trace_table()      — the fleet-facing state surface: SoA
//                                device columns and shared trace storage.
//
// Device state is stored as a structure-of-arrays FleetState and traces
// as a shared-pool TraceTable, so a 10^6-device fleet costs O(columns +
// trace pool), not a million structs and trace copies. The protected
// compute_round() prices rounds in fixed device blocks of kPricingBlock:
// within a block the compute-side math runs through the SIMD-dispatched
// fleet kernels and the upload solves in lockstep batches, a fault model
// is drawn per block on the worker that prices it, faults and deadlines
// take the scalar per-device path, and accumulation is
// sequential in device order within the block with block partials combined
// in block order. Block boundaries depend only on fleet size, so results
// are bit-identical across thread-pool sizes — and, for fleets up to one
// block, bit-identical to the legacy sequential per-device loop.
#pragma once

#include <concepts>
#include <cstddef>
#include <vector>

#include "fault/fault_model.hpp"
#include "sim/cost_model.hpp"
#include "sim/device.hpp"
#include "sim/fleet_state.hpp"
#include "sim/step_options.hpp"
#include "trace/bandwidth_trace.hpp"
#include "trace/trace_table.hpp"

namespace fedra {

class SimulatorBase {
 public:
  virtual ~SimulatorBase() = default;

  std::size_t num_devices() const { return fleet_.size(); }

  /// The fleet-facing device surface: indexed getters plus raw column
  /// spans over the SoA storage of record.
  FleetView fleet() const { return FleetView(fleet_); }
  const FleetState& fleet_state() const { return fleet_; }

  /// Shared trace storage (pool + per-device assignment).
  const TraceTable& trace_table() const { return traces_; }
  /// Device i's upload trace.
  const BandwidthTrace& trace(std::size_t i) const { return traces_[i]; }

  const CostParams& params() const { return params_; }

  /// Current wall-clock time t^k (start of the next round).
  double now() const { return now_; }
  /// Rounds completed so far.
  std::size_t iteration() const { return iteration_; }

  /// Rewinds the simulation clock (e.g. to a random episode start per
  /// Algorithm 1 line 6) and resets the round counter.
  virtual void reset(double start_time);

  /// Restores an exact (clock, round counter) pair — the checkpoint/resume
  /// hook (fedra::ckpt). Unlike reset(), the round counter is NOT zeroed,
  /// so fault draws keyed on the iteration index continue their sequence.
  void restore_clock(double now, std::size_t iteration) {
    now_ = now;
    iteration_ = iteration;
  }

  /// Runs one round with the given per-device CPU-cycle frequencies (Hz)
  /// under `options`. Frequencies are clamped to (0, delta_i^max]: values
  /// above the cap saturate, non-positive values are lifted to a small
  /// positive floor (a device cannot opt out of training). With
  /// options.dry_run_at set, behaves exactly like preview().
  virtual IterationResult step(const std::vector<double>& freqs_hz,
                               const StepOptions& options) = 0;

  /// Computes the round starting at options.dry_run_at (default: now())
  /// WITHOUT advancing the clock, the round counter, or the fault model's
  /// crash chain (the fault model is peeked, not advanced).
  virtual IterationResult preview(const std::vector<double>& freqs_hz,
                                  StepOptions options) const = 0;

  /// Fraction of delta_i^max that non-positive actions are lifted to.
  static constexpr double kMinFreqFraction = 0.01;

  /// Devices per pricing block — the fixed unit of SIMD kernel calls,
  /// batched trace solves, and thread-pool sharding. Boundaries are a
  /// function of fleet size only (never pool size), and accumulation is
  /// sequential within a block and across block partials in block order,
  /// so every pool size produces identical bits.
  static constexpr std::size_t kPricingBlock = 4096;

 protected:
  SimulatorBase(std::vector<DeviceProfile> devices,
                std::vector<BandwidthTrace> traces, CostParams params,
                double start_time);

  SimulatorBase(FleetState fleet, TraceTable traces, CostParams params,
                double start_time);

  /// The shared round engine. Faults come from options.faults (read in
  /// place) or else options.fault_model, drawn for iteration() inside each
  /// pricing block; `advance` evolves the model's crash chain (real steps
  /// only). Every device that completes waits at the barrier:
  /// idle_time = makespan - T_i.
  IterationResult compute_round(const std::vector<double>& freqs_hz,
                                const StepOptions& options,
                                bool advance, double start_time) const;

  double now_ = 0.0;
  std::size_t iteration_ = 0;

 private:
  struct BlockTotals;
  struct FaultSource;

  /// Prices devices [begin, end) of one block (fault draw, SIMD compute
  /// kernel, batched upload solves, scalar fault/deadline paths) and
  /// accumulates the block's partial totals sequentially in device order.
  void price_block(std::size_t begin, std::size_t end,
                   const std::vector<double>& freqs_hz,
                   const std::vector<bool>* participating,
                   const FaultSource& faults, double start_time,
                   double deadline, IterationResult& result,
                   BlockTotals& totals) const;

  FleetState fleet_;
  TraceTable traces_;
  CostParams params_;
};

/// Code that needs to copy simulators by value (the evaluation harness
/// replays identical conditions per controller) constrains on this
/// instead of taking SimulatorBase&.
template <typename S>
concept SteppableSimulator =
    std::derived_from<S, SimulatorBase> && std::copyable<S>;

}  // namespace fedra
