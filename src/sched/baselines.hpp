// The comparison controllers of the paper's evaluation (Section V-A), plus
// two calibration points:
//
//   Heuristic [3]  — re-solves the frequency assignment each iteration
//                    using the bandwidth REALIZED in the previous
//                    iteration ("the parameter server could know all the
//                    mobile devices' bandwidth information" from the
//                    round that just ended);
//   Static    [4]  — assumes the network is static: samples some bandwidth
//                    measurements up front, solves once for the average,
//                    and uses the same frequencies in every iteration;
//   FullSpeed      — delta_i = delta_i^max always (no DVFS at all);
//   Oracle         — optimizes against the TRUE future bandwidth of the
//                    upcoming iteration via simulator preview. NEARLY a
//                    clairvoyant lower bound: it searches deadline-matched
//                    assignments (every participant targets one completion
//                    time T) over a grid+golden scan of T, which is the
//                    optimal FAMILY when comm energy is start-time
//                    independent but can be off by a hair when upload
//                    windows make later starts cheaper. Treat it as a
//                    near-optimal reference, not an exact bound.
#pragma once

#include <cstddef>
#include <vector>

#include "sched/controller.hpp"
#include "sched/deadline_solver.hpp"
#include "util/rng.hpp"

namespace fedra {

class FullSpeedController final : public Controller {
 public:
  std::vector<double> decide(const SimulatorBase& sim) override;
  std::string name() const override { return "fullspeed"; }
};

class StaticController final : public Controller {
 public:
  /// Draws `probe_samples` random bandwidth measurements per device from
  /// its trace, averages them, and solves the deadline problem once.
  StaticController(const SimulatorBase& sim, std::size_t probe_samples,
                   Rng& rng);

  std::vector<double> decide(const SimulatorBase& sim) override;
  std::string name() const override { return "static"; }

  const std::vector<double>& fixed_freqs() const { return freqs_; }

 private:
  std::vector<double> freqs_;
};

class HeuristicController final : public Controller {
 public:
  /// Until the first observation arrives, falls back to the per-device
  /// mean trace bandwidth (same information the Static baseline gets).
  explicit HeuristicController(const SimulatorBase& sim);

  std::vector<double> decide(const SimulatorBase& sim) override;
  void observe(const IterationResult& result) override;
  std::string name() const override { return "heuristic"; }

 private:
  std::vector<double> last_bandwidths_;
};

class OracleController final : public Controller {
 public:
  /// Scans 48 coarse deadlines with true previews, then refines the best
  /// bracket by golden-section.
  std::vector<double> decide(const SimulatorBase& sim) override;
  std::string name() const override { return "oracle"; }

  /// The deadline-matched assignment for a round deadline `deadline`
  /// seconds after sim.now(): each device gets the smallest frequency in
  /// [floor, max] whose true completion (compute, then the trace-integral
  /// upload) is <= deadline, or max when even that misses it.
  std::vector<double> freqs_for_true_deadline(const SimulatorBase& sim,
                                              double deadline) const;

 private:
  double true_cost(const SimulatorBase& sim, double deadline) const;
};

}  // namespace fedra
