// Multi-seed experiment runner: repeats a scenario across independent
// seeds (fresh fleet + traces each), aggregates per-policy metrics with
// mean and a normal-approximation 95 % confidence interval. The single
// 400-iteration runs behind the paper's figures are one sample each; this
// runner quantifies how stable the ordering is across environments.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/evaluation.hpp"
#include "sim/experiment_config.hpp"

namespace fedra {

class ThreadPool;

/// A policy entry: name + factory producing a fresh controller for a
/// given simulator (controllers are stateful, so each seed needs its own).
struct PolicySpec {
  std::string name;
  std::function<std::unique_ptr<Controller>(const SimulatorBase&)> make;
};

/// The model-based baselines, in table order: oracle, heuristic [3],
/// static [4] (10 probes drawn from Rng(1)) and fullspeed.
std::vector<PolicySpec> baseline_roster();

struct MetricCI {
  double mean = 0.0;
  double stddev = 0.0;
  double ci95 = 0.0;  ///< half-width, 1.96 * stddev / sqrt(n)
  std::size_t samples = 0;
};

struct PolicyAggregate {
  std::string policy;
  MetricCI cost;
  MetricCI time;
  MetricCI compute_energy;
  /// Fraction of seeds where this policy had the LOWEST avg cost.
  double win_rate = 0.0;
};

struct MultiSeedResult {
  std::vector<PolicyAggregate> policies;
  std::vector<std::uint64_t> seeds;
};

/// Mean / stddev / 95 % CI of one metric's samples (normal approximation).
MetricCI make_metric_ci(const std::vector<double>& samples);

/// Runs every policy on `num_seeds` scenario instances derived from
/// `base` (seed = base.seed + s), `iterations` iterations each, all
/// policies on identical conditions per seed. Routed through the sweep
/// engine (core/sweep.hpp): pass a pool to run arms concurrently — the
/// aggregate is bitwise identical to the serial (pool == nullptr) loop
/// for any pool size.
MultiSeedResult run_multi_seed(const ExperimentConfig& base,
                               const std::vector<PolicySpec>& policies,
                               std::size_t num_seeds,
                               std::size_t iterations,
                               ThreadPool* pool = nullptr);

/// Formats one aggregate as a table row.
std::string format_aggregate_row(const PolicyAggregate& a);
std::string aggregate_header();

}  // namespace fedra
