// Per-iteration frequency optimization under a bandwidth ESTIMATE.
//
// Given estimated per-device communication times t_hat_i, the iteration
// cost as a function of the deadline T is
//
//   cost(T) = max(T, T_min) + lambda * sum_i [ tau alpha_i c_i D_i
//             delta_i(T)^2 + e_i t_hat_i ],
//   delta_i(T) = clamp( tau c_i D_i / (T - t_hat_i), floor, delta_i^max ),
//
// i.e. every device slows down exactly enough to finish at T (never below
// the simulator's frequency floor, never above its cap). On the feasible
// region T >= T_min = max_i (t_cmp^min_i + t_hat_i), each energy term is
// convex and decreasing in T and the makespan is linear, so cost(T) is
// strictly convex and golden-section search finds the optimum. Both
// paper baselines (Heuristic [3] and Static [4]) reduce to this solver —
// they differ only in where t_hat_i comes from.
//
// The solver takes the fleet as a FleetView (SoA columns), so the inner
// per-device maps run through the columnar fleet kernels; the makespan
// and energy reductions stay sequential scalar sums, which keeps every
// result bit-identical to the per-device legacy loop. Call sites holding
// an AoS vector columnize once via FleetState and pass the view.
#pragma once

#include <vector>

#include "sim/cost_model.hpp"
#include "sim/device.hpp"
#include "sim/fleet_state.hpp"

namespace fedra {

struct DeadlineSolution {
  double deadline = 0.0;         ///< optimal T
  std::vector<double> freqs_hz;  ///< delta_i(T*)
  double predicted_cost = 0.0;   ///< cost(T*) under the estimates
};

/// Minimal feasible frequencies for finishing by `deadline` given the
/// estimated comm times (clamped to [floor, delta_i^max]).
std::vector<double> freqs_for_deadline(FleetView devices,
                                       const std::vector<double>& est_comm_times,
                                       double deadline, double tau,
                                       double min_freq_fraction);

/// Predicted cost of running `freqs_hz` when comm times equal the
/// estimates (makespan = max_i of estimated completion).
double predicted_cost(FleetView devices,
                      const std::vector<double>& est_comm_times,
                      const std::vector<double>& freqs_hz,
                      const CostParams& params);

/// Earliest feasible deadline: every device at delta_i^max.
double min_deadline(FleetView devices,
                    const std::vector<double>& est_comm_times, double tau);

/// Latest deadline worth considering: every device at its frequency floor.
double max_deadline(FleetView devices,
                    const std::vector<double>& est_comm_times, double tau,
                    double min_freq_fraction);

/// Golden-section minimization of cost(T) over [min_deadline,
/// max_deadline]. `tolerance` is the absolute bracket width at which the
/// search stops.
DeadlineSolution solve_deadline(FleetView devices,
                                const std::vector<double>& est_comm_times,
                                const CostParams& params,
                                double min_freq_fraction = 0.01,
                                double tolerance = 1e-4);

/// Convenience: turns estimated bandwidths (bytes/s) into comm times
/// xi / B_hat and solves.
DeadlineSolution solve_with_bandwidths(FleetView devices,
                                       const std::vector<double>& est_bandwidths,
                                       const CostParams& params,
                                       double min_freq_fraction = 0.01);

}  // namespace fedra
