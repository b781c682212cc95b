// fedra_cli — command-line front end for the library.
//
//   fedra_cli traces --preset lte_walking --count 3 --seconds 600
//                    [--out prefix] [--fit trace.csv]
//   fedra_cli solve  --bandwidths 2e6,4e6,1e6 [--seed S] [--lambda L]
//   fedra_cli train  --out agent.ckpt [--devices N] [--episodes E]
//                    [--seed S] [--lambda L] [--scale]
//   fedra_cli eval   --ckpt agent.ckpt [--iterations K] [--seed S]
//
// `train` writes one file: the fedra::ckpt trainer snapshot, whose "meta"
// section holds the scenario inputs (devices, seed, lambda, scale,
// trace_samples) as raw f64. `eval` rebuilds the trainer from that meta
// through the same checks as `train`, restores the snapshot into it and
// runs the full controller roster on identical conditions. A flag the
// subcommand does not take ends the run with exit 2.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "ckpt/checkpoint.hpp"
#include "core/drl_controller.hpp"
#include "core/evaluation.hpp"
#include "core/experiment.hpp"
#include "core/fairness.hpp"
#include "core/offline_trainer.hpp"
#include "live/flight_recorder.hpp"
#include "live/http_exporter.hpp"
#include "sched/baselines.hpp"
#include "sim/experiment_config.hpp"
#include "trace/fit.hpp"
#include "trace/generator.hpp"
#include "telemetry/telemetry.hpp"
#include "trace/loader.hpp"
#include "util/argparse.hpp"
#include "util/csv.hpp"
#include "util/logging.hpp"

namespace {

using namespace fedra;

int usage() {
  std::fprintf(stderr,
               "usage: fedra_cli <traces|solve|train|eval|multiseed> "
               "[options]\n"
               "  traces    --preset lte_walking|hsdpa_bus --count N "
               "--seconds S [--out prefix] [--fit file.csv] [--seed S]\n"
               "  solve     --bandwidths B1,B2,... [--seed S] [--lambda L] "
               "[--scale]\n"
               "  train     --out F [--devices N] [--episodes E] [--seed S] "
               "[--lambda L] [--scale]\n"
               "            [--trace-samples T] [--checkpoint-every N] "
               "[--resume F]\n"
               "  eval      --ckpt F [--iterations K] [--seed S]\n"
               "  multiseed [--seeds S] [--iterations K] [--devices N] "
               "[--seed S] [--lambda L] [--scale] [--trace-samples T]\n"
               "  any command also accepts --live-port P (0 = ephemeral): "
               "serve GET /metrics, /healthz, /statusz on 127.0.0.1:P for "
               "the lifetime of the command\n");
  return 2;
}

// --live-port P: start the embedded observability exporter for the
// duration of the command. Enables in-memory telemetry (no sink files —
// scrapes read the live registry) and installs the flight-recorder crash
// handler so a SIGSEGV/SIGABRT mid-run still dumps the black box. A port
// outside [0, 65535] or one that cannot be bound ends the command with
// exit 1 before it runs.
std::unique_ptr<live::LiveServer> maybe_start_live(const ArgParser& args) {
  if (!args.has("live-port")) return nullptr;
  telemetry::TelemetryConfig tcfg;
  telemetry::Telemetry::enable(tcfg);
  live::install_flight_recorder_crash_handler();
  const std::int64_t port = args.get_int("live-port", 0);
  live::LiveConfig lcfg;
  // Out-of-range values stay out of range, so start() refuses them.
  lcfg.port = static_cast<int>(std::clamp<std::int64_t>(port, -1, 65536));
  auto server = std::make_unique<live::LiveServer>(lcfg);
  if (!server->start()) {
    throw std::invalid_argument("cannot start the live exporter on port " +
                                std::to_string(port));
  }
  std::printf("live exporter on http://127.0.0.1:%d (/metrics /healthz "
              "/statusz)\n",
              server->port());
  return server;
}

// The scenario inputs, as the raw f64 values a checkpoint's meta section
// stores. Every subcommand builds its ExperimentConfig from such values
// through scenario_config, so eval rebuilds exactly the scenario train
// ran and rejects what train would reject.
ckpt::Meta scenario_meta(const ArgParser& args) {
  const bool scale = args.flag("scale");
  const ExperimentConfig base = scale ? scale_config() : testbed_config();
  return {{"devices", args.get_double(
                          "devices", static_cast<double>(base.num_devices))},
          {"seed", args.get_double("seed", 42.0)},
          {"lambda", args.get_double("lambda", base.cost.lambda)},
          {"scale", scale ? 1.0 : 0.0},
          {"trace_samples", args.get_double("trace-samples", 2000.0)}};
}

// `v` printed with every digit an f64 needs to round-trip.
std::string g17(double v) {
  char buf[32];  // "%.17g" of any double takes at most 24 characters
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

// meta[key], which must lie in [lo, hi] and, when `whole`, be an integer.
double checked(const ckpt::Meta& meta, const std::string& key, double lo,
               double hi, bool whole = true) {
  const auto it = meta.find(key);
  if (it == meta.end()) {
    throw std::invalid_argument("scenario has no " + key);
  }
  const double v = it->second;
  if (!(v >= lo && v <= hi) || (whole && v != std::floor(v))) {
    throw std::invalid_argument(key + " " + g17(v) + " is not " +
                                (whole ? "an integer" : "a number") + " in [" +
                                g17(lo) + ", " + g17(hi) + "]");
  }
  return v;
}

ExperimentConfig scenario_config(const ckpt::Meta& meta) {
  ExperimentConfig cfg =
      checked(meta, "scale", 0, 1) == 1 ? scale_config() : testbed_config();
  cfg.num_devices = static_cast<std::size_t>(checked(meta, "devices", 1, 1e3));
  // Every integer up to 2^53 - 1 is exact in an f64.
  cfg.seed = static_cast<std::uint64_t>(
      checked(meta, "seed", 0, 9007199254740991.0));
  cfg.cost.lambda = checked(meta, "lambda", 0, 1e6, false);
  cfg.trace_samples =
      static_cast<std::size_t>(checked(meta, "trace_samples", 1, 1e5));
  return cfg;
}

std::size_t count_flag(const ArgParser& args, const std::string& key,
                       std::int64_t fallback, std::int64_t min) {
  const std::int64_t v = args.get_int(key, fallback);
  if (v < min) {
    throw std::invalid_argument("--" + key + " must be at least " +
                                std::to_string(min));
  }
  return static_cast<std::size_t>(v);
}

FlEnvConfig env_config(const ExperimentConfig& cfg) {
  FlEnvConfig env_cfg;
  env_cfg.slot_seconds = cfg.slot_seconds;
  env_cfg.history_slots = cfg.history_slots;
  env_cfg.episode_length = 40;
  return env_cfg;
}

OfflineTrainer make_trainer(const ExperimentConfig& cfg,
                            std::size_t episodes) {
  return OfflineTrainer(FlEnv(build_simulator(cfg), env_config(cfg)),
                        recommended_trainer_config(episodes), cfg.seed + 1);
}

int cmd_traces(const ArgParser& args) {
  if (args.has("fit")) {
    const auto path = args.require("fit");
    auto trace = load_trace_csv(path);
    const FitOptions fit_options;
    if (trace.num_samples() < 2 * fit_options.regimes) {
      std::fprintf(stderr,
                   "fedra_cli traces: %s has %zu samples; --fit needs at "
                   "least %zu\n",
                   path.c_str(), trace.num_samples(),
                   2 * fit_options.regimes);
      return 1;
    }
    auto fit = fit_trace_model(trace, fit_options);
    std::printf("fit of %s (%zu samples @ %.1f s):\n", path.c_str(),
                trace.num_samples(), trace.resolution());
    std::printf("  regimes (bytes/s):");
    for (double m : fit.model.regime_means) std::printf(" %.3e", m);
    std::printf("\n  occupancy:");
    for (double o : fit.occupancy) std::printf(" %.3f", o);
    std::printf("\n  persistence %.4f | ar %.3f | noise_frac %.3f\n",
                fit.model.persistence, fit.model.ar_coeff,
                fit.model.noise_frac);
    return 0;
  }
  const auto preset = args.get("preset", "lte_walking");
  const std::size_t count = count_flag(args, "count", 3, 1);
  const std::size_t seconds = count_flag(args, "seconds", 600, 1);
  Rng rng(static_cast<std::uint64_t>(args.get_int("seed", 42)));
  auto traces = generate_trace_set(preset, count, seconds, rng);
  for (std::size_t i = 0; i < traces.size(); ++i) {
    std::printf("trace %zu: min %.3e  mean %.3e  max %.3e bytes/s\n", i + 1,
                traces[i].min_bandwidth(), traces[i].mean_bandwidth(),
                traces[i].max_bandwidth());
    if (args.has("out")) {
      const std::string path =
          args.require("out") + "_" + std::to_string(i + 1) + ".csv";
      CsvWriter w(path);
      w.write_row(CsvRow{"time_s", "bandwidth_bytes_per_s"});
      for (std::size_t j = 0; j < traces[i].num_samples(); ++j) {
        w.write_row(std::vector<double>{static_cast<double>(j),
                                        traces[i].samples()[j]});
      }
      std::printf("  wrote %s\n", path.c_str());
    }
  }
  return 0;
}

int cmd_solve(const ArgParser& args) {
  auto bandwidths = args.get_double_list("bandwidths");
  if (bandwidths.empty()) {
    std::fprintf(stderr, "solve: --bandwidths B1,B2,... is required\n");
    return 2;
  }
  for (const double b : bandwidths) {
    if (!(std::isfinite(b) && b > 0.0)) {
      throw std::invalid_argument("bandwidth " + g17(b) +
                                  " is not a finite number > 0");
    }
  }
  ExperimentConfig cfg = scenario_config(scenario_meta(args));
  cfg.num_devices = bandwidths.size();
  cfg.trace_pool = 0;
  Rng rng(cfg.seed);
  const FleetState fleet(make_fleet(cfg.num_devices, cfg.fleet, rng));
  auto sol = solve_with_bandwidths(fleet, bandwidths, cfg.cost);
  std::printf("deadline T* = %.4f s, predicted cost = %.4f\n", sol.deadline,
              sol.predicted_cost);
  std::printf("%-8s %14s %14s %12s\n", "device", "freq (GHz)", "cap (GHz)",
              "t_cmp (s)");
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    std::printf("%-8zu %14.4f %14.4f %12.4f\n", i, sol.freqs_hz[i] / 1e9,
                fleet.max_freq_hz()[i] / 1e9,
                fleet.device(i).compute_time(sol.freqs_hz[i], cfg.cost.tau));
  }
  return 0;
}

int cmd_train(const ArgParser& args) {
  const auto out = args.require("out");
  const ckpt::Meta meta = scenario_meta(args);
  const ExperimentConfig cfg = scenario_config(meta);
  const std::size_t episodes = count_flag(args, "episodes", 2000, 1);

  std::printf("training: N=%zu, lambda=%.3f, %zu episodes, seed %llu\n",
              cfg.num_devices, cfg.cost.lambda, episodes,
              static_cast<unsigned long long>(cfg.seed));
  OfflineTrainer trainer = make_trainer(cfg, episodes);

  // Checkpoint/resume wiring: the trainer stays format-agnostic — the
  // hooks below call into fedra::ckpt, and --resume restores the full
  // training state (so the run continues bit-exactly) before any episode
  // runs. Periodic snapshots and the final one all go to --out; the
  // writes are atomic, so --resume continues from either kind.
  TrainHooks hooks;
  hooks.checkpoint_every = count_flag(args, "checkpoint-every", 0, 0);
  if (args.has("resume")) {
    const auto resume = args.require("resume");
    hooks.start_episode = ckpt::restore_trainer(resume, trainer);
    if (hooks.start_episode > episodes) {
      throw std::invalid_argument(
          resume + " is at episode " + std::to_string(hooks.start_episode) +
          ", past --episodes " + std::to_string(episodes));
    }
    std::printf("resumed %s at episode %zu\n", resume.c_str(),
                hooks.start_episode);
  }
  if (hooks.checkpoint_every > 0) {
    hooks.on_checkpoint = [&](std::size_t next_episode, const EpisodeStats&) {
      ckpt::save_trainer(out, trainer, next_episode, meta);
      std::printf("checkpoint -> %s (next episode %zu)\n", out.c_str(),
                  next_episode);
    };
  }

  auto history = trainer.train(hooks);
  if (!history.empty()) {
    std::printf("episode avg cost: first %.4f -> last %.4f\n",
                history.front().avg_cost, history.back().avg_cost);
  }

  ckpt::save_trainer(out, trainer, episodes, meta);
  std::printf("saved %s\n", out.c_str());
  return 0;
}

int cmd_eval(const ArgParser& args) {
  const auto path = args.require("ckpt");
  const ExperimentConfig cfg = scenario_config(ckpt::read_meta(path));
  OfflineTrainer trainer = make_trainer(cfg, 1);
  ckpt::restore_trainer(path, trainer);

  const auto iters = count_flag(args, "iterations", 400, 1);
  auto sim = build_simulator(cfg);
  DrlController drl(trainer.agent(), env_config(cfg),
                    trainer.env().bandwidth_ref());
  HeuristicController heuristic(sim);
  Rng rng(static_cast<std::uint64_t>(args.get_int("seed", 3)));
  StaticController st(sim, 10, rng);
  FullSpeedController full;
  OracleController oracle;

  std::printf("%-12s %12s %12s %12s %12s %10s\n", "policy", "avg cost",
              "avg time", "avg Ecmp", "energy Jain", "idle frac");
  for (Controller* c : std::initializer_list<Controller*>{
           &drl, &heuristic, &st, &full, &oracle}) {
    auto detailed = run_controller_detailed(sim, *c, iters);
    EvalSeries s;
    s.policy = c->name();
    for (const auto& r : detailed) {
      s.costs.push_back(r.cost);
      s.times.push_back(r.iteration_time);
      s.compute_energies.push_back(r.total_compute_energy);
    }
    const auto fair = fairness_report(detailed);
    std::printf("%-12s %12.4f %12.4f %12.4f %12.4f %10.4f\n",
                s.policy.c_str(), s.avg_cost(), s.avg_time(),
                s.avg_compute_energy(), fair.energy_jain,
                fair.idle_fraction);
  }
  return 0;
}

int cmd_multiseed(const ArgParser& args) {
  ExperimentConfig base = scenario_config(scenario_meta(args));
  const std::size_t seeds = count_flag(args, "seeds", 10, 1);
  const std::size_t iters = count_flag(args, "iterations", 200, 1);

  auto result = run_multi_seed(base, baseline_roster(), seeds, iters);
  std::printf("%s\n", aggregate_header().c_str());
  for (const auto& p : result.policies) {
    std::printf("%s\n", format_aggregate_row(p).c_str());
  }
  return 0;
}

struct Command {
  const char* name;
  int (*run)(const ArgParser&);
  std::vector<std::string> flags;  ///< besides --live-port
};

const std::vector<Command>& commands() {
  static const std::vector<Command> table = {
      {"traces", cmd_traces, {"preset", "count", "seconds", "out", "fit",
                              "seed"}},
      {"solve", cmd_solve, {"bandwidths", "seed", "lambda", "scale"}},
      {"train", cmd_train, {"out", "episodes", "checkpoint-every", "resume",
                            "devices", "seed", "lambda", "scale",
                            "trace-samples"}},
      {"eval", cmd_eval, {"ckpt", "iterations", "seed"}},
      {"multiseed", cmd_multiseed, {"seeds", "iterations", "devices", "seed",
                                    "lambda", "scale", "trace-samples"}},
  };
  return table;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  const Command* command = nullptr;
  for (const auto& c : commands()) {
    if (cmd == c.name) command = &c;
  }
  if (command == nullptr) return usage();
  fedra::set_log_level(fedra::LogLevel::Info);
  try {
    fedra::ArgParser args(argc - 1, argv + 1);
    std::vector<std::string> known = command->flags;
    known.push_back("live-port");
    const auto unknown = args.unknown_keys(known);
    if (!unknown.empty()) {
      for (const auto& key : unknown) {
        std::fprintf(stderr, "fedra_cli %s: unknown flag --%s\n", cmd.c_str(),
                     key.c_str());
      }
      return 2;
    }
    const auto live_server = maybe_start_live(args);
    return command->run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fedra_cli %s: %s\n", cmd.c_str(), e.what());
    return 1;
  }
}
