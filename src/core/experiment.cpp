#include "core/experiment.hpp"

#include <cmath>
#include <cstdio>

#include "core/sweep.hpp"
#include "sched/baselines.hpp"
#include "util/contracts.hpp"
#include "util/stats.hpp"

namespace fedra {

std::vector<PolicySpec> baseline_roster() {
  std::vector<PolicySpec> roster;
  roster.push_back({"oracle", [](const SimulatorBase&) {
                      return std::make_unique<OracleController>();
                    }});
  roster.push_back({"heuristic", [](const SimulatorBase& sim) {
                      return std::make_unique<HeuristicController>(sim);
                    }});
  roster.push_back({"static", [](const SimulatorBase& sim) {
                      Rng rng(1);
                      return std::make_unique<StaticController>(sim, 10, rng);
                    }});
  roster.push_back({"fullspeed", [](const SimulatorBase&) {
                      return std::make_unique<FullSpeedController>();
                    }});
  return roster;
}

MetricCI make_metric_ci(const std::vector<double>& xs) {
  MetricCI ci;
  ci.samples = xs.size();
  ci.mean = mean(xs);
  ci.stddev = stddev(xs);
  if (!xs.empty()) {
    ci.ci95 = 1.96 * ci.stddev / std::sqrt(static_cast<double>(xs.size()));
  }
  return ci;
}

MultiSeedResult run_multi_seed(const ExperimentConfig& base,
                               const std::vector<PolicySpec>& policies,
                               std::size_t num_seeds,
                               std::size_t iterations,
                               ThreadPool* pool) {
  FEDRA_EXPECTS(!policies.empty());
  FEDRA_EXPECTS(num_seeds > 0 && iterations > 0);

  SweepGrid grid;
  grid.configs = {base};
  grid.policies = policies;
  grid.num_seeds = num_seeds;
  grid.iterations = iterations;
  SweepEngine engine(std::move(grid));
  return reduce_multi_seed(engine.grid(), engine.run(pool));
}

std::string format_aggregate_row(const PolicyAggregate& a) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "%-12s %9.4f ±%7.4f %9.4f ±%7.4f %9.4f ±%7.4f %7.0f%%",
                a.policy.c_str(), a.cost.mean, a.cost.ci95, a.time.mean,
                a.time.ci95, a.compute_energy.mean, a.compute_energy.ci95,
                100.0 * a.win_rate);
  return buf;
}

std::string aggregate_header() {
  char buf[256];
  std::snprintf(buf, sizeof(buf), "%-12s %9s %8s %9s %8s %9s %8s %8s",
                "policy", "cost", "ci95", "time", "ci95", "Ecmp", "ci95",
                "wins");
  return buf;
}

}  // namespace fedra
