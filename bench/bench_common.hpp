// Shared plumbing for the figure benches: agent training, evaluation of a
// controller roster on identical conditions, and the tabular/CDF printers
// that emit the rows the paper's figures plot.
#pragma once

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/drl_controller.hpp"
#include "core/evaluation.hpp"
#include "core/offline_trainer.hpp"
#include "obs/ledger.hpp"
#include "sched/baselines.hpp"
#include "sim/experiment_config.hpp"
#include "telemetry/telemetry.hpp"
#include "util/stats.hpp"

namespace fedra::bench {

/// Scans argv for `--telemetry-out <prefix>` (or `--telemetry-out=prefix`)
/// and, when present, enables telemetry writing `<prefix>.jsonl` and
/// `<prefix>.trace.json` (flushed at exit). `--ledger-out <path>` likewise
/// enables the run ledger, which needs no telemetry, writing a
/// `fedra.ledger.v1` JSONL that tools/fedra_report renders. Both flags are
/// REMOVED from argc/argv so downstream parsers (google-benchmark rejects
/// unknown flags) never see them. Returns true when telemetry was enabled.
inline bool init_telemetry_from_args(int& argc, char** argv) {
  std::string prefix;
  std::string ledger_path;
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--telemetry-out" && i + 1 < argc) {
      prefix = argv[++i];
      continue;
    }
    if (arg.rfind("--telemetry-out=", 0) == 0) {
      prefix = arg.substr(std::string("--telemetry-out=").size());
      continue;
    }
    if (arg == "--ledger-out" && i + 1 < argc) {
      ledger_path = argv[++i];
      continue;
    }
    if (arg.rfind("--ledger-out=", 0) == 0) {
      ledger_path = arg.substr(std::string("--ledger-out=").size());
      continue;
    }
    argv[out++] = argv[i];
  }
  argc = out;
  if (!prefix.empty()) {
    telemetry::TelemetryConfig cfg;
    cfg.jsonl_path = prefix + ".jsonl";
    cfg.chrome_trace_path = prefix + ".trace.json";
    telemetry::Telemetry::enable(cfg);
  }
  if (!ledger_path.empty()) {
    obs::LedgerConfig lcfg;
    lcfg.path = ledger_path;
    // bench_micro, the one bench that accepts this flag, runs on
    // testbed_config(), so its cost weight is the right header lambda. Per-round energy_term stays
    // authoritative either way (it is computed from the sim's own params).
    lcfg.lambda = testbed_config().cost.lambda;
    const std::string argv0 = argv[0] != nullptr ? argv[0] : "bench";
    const std::size_t slash = argv0.find_last_of('/');
    lcfg.run_id = slash == std::string::npos ? argv0 : argv0.substr(slash + 1);
    obs::RunLedger::enable(lcfg);
  }
  return !prefix.empty();
}

/// A trained agent plus everything needed to rebuild matching simulators.
struct TrainedAgent {
  ExperimentConfig cfg;
  FlEnvConfig env_cfg;
  double bandwidth_ref = 0.0;
  std::unique_ptr<OfflineTrainer> trainer;
  std::vector<EpisodeStats> history;
};

inline FlEnvConfig env_config_for(const ExperimentConfig& cfg,
                                  std::size_t episode_length = 40) {
  FlEnvConfig env_cfg;
  env_cfg.slot_seconds = cfg.slot_seconds;
  env_cfg.history_slots = cfg.history_slots;
  env_cfg.episode_length = episode_length;
  return env_cfg;
}

/// Runs Algorithm 1 offline training on the given scenario.
inline TrainedAgent train_agent(const ExperimentConfig& cfg,
                                std::size_t episodes,
                                std::uint64_t seed = 7) {
  TrainedAgent out;
  out.cfg = cfg;
  out.env_cfg = env_config_for(cfg);
  FlEnv env(build_simulator(cfg), out.env_cfg);
  out.bandwidth_ref = env.bandwidth_ref();
  TrainerConfig tcfg = recommended_trainer_config(episodes);
  out.trainer = std::make_unique<OfflineTrainer>(std::move(env), tcfg, seed);
  out.history = out.trainer->train();
  return out;
}

/// Evaluates DRL + the paper's baselines (+ oracle/fullspeed calibration
/// points) on a fresh simulator over `iterations` iterations.
inline std::vector<EvalSeries> evaluate_roster(TrainedAgent& agent,
                                               std::size_t iterations,
                                               std::size_t static_probes = 10,
                                               std::uint64_t eval_seed = 3) {
  auto sim = build_simulator(agent.cfg);
  DrlController drl(agent.trainer->agent(), agent.env_cfg,
                    agent.bandwidth_ref);
  HeuristicController heuristic(sim);
  Rng rng(eval_seed);
  StaticController st(sim, static_probes, rng);
  FullSpeedController full;
  OracleController oracle;

  std::vector<EvalSeries> out;
  out.push_back(run_controller(sim, drl, iterations));
  out.push_back(run_controller(sim, heuristic, iterations));
  out.push_back(run_controller(sim, st, iterations));
  out.push_back(run_controller(sim, full, iterations));
  out.push_back(run_controller(sim, oracle, iterations));
  return out;
}

inline void print_summary_table(const char* metric,
                                const std::vector<EvalSeries>& roster,
                                std::vector<double> EvalSeries::*series) {
  std::printf("\n== %s ==\n%s\n", metric, summary_header().c_str());
  for (const auto& s : roster) {
    std::printf("%s\n",
                format_summary_row(s.policy, summarize(s.*series)).c_str());
  }
}

/// Prints controller decide() wall-clock latency percentiles. Tail
/// percentiles, not the mean: a served federation blocks on decide(), so
/// p99 is what a straggler round actually waits.
inline void print_decide_latency_table(const std::vector<EvalSeries>& roster) {
  std::printf("\n== controller decide() latency (us) ==\n");
  std::printf("%-12s %10s %10s %10s %10s\n", "policy", "p50", "p90", "p99",
              "max");
  for (const auto& s : roster) {
    if (s.decide_us.empty()) continue;
    std::printf("%-12s %10.2f %10.2f %10.2f %10.2f\n", s.policy.c_str(),
                percentile(s.decide_us, 50.0), percentile(s.decide_us, 90.0),
                percentile(s.decide_us, 99.0),
                percentile(s.decide_us, 100.0));
  }
}

/// Prints an empirical CDF as fixed fractiles per policy (the paper's
/// Figs. 7d-7f are CDF plots; these rows re-draw them).
inline void print_cdf_table(const char* metric,
                            const std::vector<EvalSeries>& roster,
                            std::vector<double> EvalSeries::*series) {
  std::printf("\n== CDF of %s (value at cumulative fraction) ==\n", metric);
  std::printf("%-12s", "policy");
  const std::vector<double> fractions{0.1, 0.25, 0.5, 0.75, 0.8, 0.9, 0.95};
  for (double f : fractions) std::printf(" p%-7.0f", f * 100);
  std::printf("\n");
  for (const auto& s : roster) {
    std::printf("%-12s", s.policy.c_str());
    for (double f : fractions) {
      std::printf(" %-8.3f", percentile(s.*series, f * 100));
    }
    std::printf("\n");
  }
}

}  // namespace fedra::bench
