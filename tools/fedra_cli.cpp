// fedra_cli — command-line front end for the library.
//
//   fedra_cli traces --preset lte_walking --count 3 --seconds 600
//                    [--out prefix] [--fit trace.csv]
//   fedra_cli solve  --bandwidths 2e6,4e6,1e6 [--devices N] [--seed S]
//                    [--lambda L]
//   fedra_cli train  --out agent [--devices N] [--episodes E] [--seed S]
//                    [--lambda L] [--scale]
//   fedra_cli eval   --ckpt agent [--iterations K] [--seed S]
//
// `train` writes agent.actor / agent.critic (binary weights) plus
// agent.meta (the scenario parameters needed to rebuild matching
// simulators); `eval` reads all three and runs the full controller roster
// on identical conditions.
#include <cstdio>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string>

#include <memory>

#include "ckpt/checkpoint.hpp"
#include "core/drl_controller.hpp"
#include "core/evaluation.hpp"
#include "core/experiment.hpp"
#include "core/fairness.hpp"
#include "core/offline_trainer.hpp"
#include "live/flight_recorder.hpp"
#include "live/http_exporter.hpp"
#include "sched/predictive.hpp"
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
               "--seconds S [--out prefix] [--fit file.csv]\n"
               "  solve     --bandwidths B1,B2,... [--devices N] [--seed S] "
               "[--lambda L]\n"
               "  train     --out prefix [--devices N] [--episodes E] "
               "[--seed S] [--lambda L] [--scale]\n"
               "            [--checkpoint-every N] [--checkpoint-path F] "
               "[--resume F]\n"
               "  eval      --ckpt prefix [--iterations K] [--seed S]\n"
               "  multiseed [--seeds S] [--iterations K] [--devices N] "
               "[--lambda L] [--scale]\n"
               "  any command also accepts --live-port P (0 = ephemeral): "
               "serve GET /metrics, /healthz, /statusz on 127.0.0.1:P for "
               "the lifetime of the command\n");
  return 2;
}

// --live-port P: start the embedded observability exporter for the
// duration of the command. Enables in-memory telemetry (no sink files —
// scrapes read the live registry) and installs the flight-recorder crash
// handler so a SIGSEGV/SIGABRT mid-run still dumps the black box.
std::unique_ptr<live::LiveServer> maybe_start_live(const ArgParser& args) {
  if (!args.has("live-port")) return nullptr;
  telemetry::TelemetryConfig tcfg;
  telemetry::Telemetry::enable(tcfg);
  live::install_flight_recorder_crash_handler();
  live::LiveConfig lcfg;
  lcfg.port = static_cast<int>(args.get_int("live-port", 0));
  auto server = std::make_unique<live::LiveServer>(lcfg);
  if (!server->start()) {
    std::fprintf(stderr, "fedra_cli: cannot bind live exporter to port %d\n",
                 lcfg.port);
    return nullptr;
  }
  std::printf("live exporter on http://127.0.0.1:%d (/metrics /healthz "
              "/statusz)\n",
              server->port());
  return server;
}

ExperimentConfig scenario_from(const ArgParser& args) {
  ExperimentConfig cfg =
      args.flag("scale") ? scale_config() : testbed_config();
  cfg.num_devices = static_cast<std::size_t>(
      args.get_int("devices", static_cast<std::int64_t>(cfg.num_devices)));
  cfg.seed = static_cast<std::uint64_t>(args.get_int("seed", 42));
  cfg.cost.lambda = args.get_double("lambda", cfg.cost.lambda);
  cfg.trace_samples = static_cast<std::size_t>(
      args.get_int("trace-samples", 2000));
  return cfg;
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
  const auto count = static_cast<std::size_t>(args.get_int("count", 3));
  const auto seconds = static_cast<std::size_t>(args.get_int("seconds", 600));
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
  ExperimentConfig cfg = scenario_from(args);
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

void write_meta(const std::string& path,
                const std::map<std::string, double>& kv) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw std::runtime_error("cannot write " + path);
  for (const auto& [k, v] : kv) out << k << "=" << v << "\n";
}

std::map<std::string, double> read_meta(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::map<std::string, double> kv;
  std::string line;
  while (std::getline(in, line)) {
    const auto eq = line.find('=');
    if (eq == std::string::npos) continue;
    kv[line.substr(0, eq)] = std::stod(line.substr(eq + 1));
  }
  return kv;
}

int cmd_train(const ArgParser& args) {
  const auto out = args.require("out");
  ExperimentConfig cfg = scenario_from(args);
  const auto episodes =
      static_cast<std::size_t>(args.get_int("episodes", 2000));

  FlEnvConfig env_cfg;
  env_cfg.slot_seconds = cfg.slot_seconds;
  env_cfg.history_slots = cfg.history_slots;
  env_cfg.episode_length = 40;
  FlEnv env(build_simulator(cfg), env_cfg);
  const double bw_ref = env.bandwidth_ref();

  std::printf("training: N=%zu, lambda=%.3f, %zu episodes, seed %llu\n",
              cfg.num_devices, cfg.cost.lambda, episodes,
              static_cast<unsigned long long>(cfg.seed));
  OfflineTrainer trainer(std::move(env), recommended_trainer_config(episodes),
                         cfg.seed + 1);

  // Checkpoint/resume wiring: the trainer stays format-agnostic — the
  // hooks below call into fedra::ckpt, and --resume restores the full
  // training state (so the run continues bit-exactly) before any episode
  // runs.
  TrainHooks hooks;
  hooks.checkpoint_every =
      static_cast<std::size_t>(args.get_int("checkpoint-every", 0));
  const std::string ckpt_path = args.get("checkpoint-path", out + ".ckpt");
  if (args.has("resume")) {
    hooks.start_episode = ckpt::restore_trainer(args.require("resume"), trainer);
    std::printf("resumed %s at episode %zu\n", args.require("resume").c_str(),
                hooks.start_episode);
  }
  if (hooks.checkpoint_every > 0) {
    hooks.on_checkpoint = [&](std::size_t next_episode,
                              const EpisodeStats& stats) {
      ckpt::save_trainer(ckpt_path, trainer, next_episode,
                         {{"next_episode", static_cast<double>(next_episode)},
                          {"avg_cost", stats.avg_cost},
                          {"seed", static_cast<double>(cfg.seed)},
                          {"devices",
                           static_cast<double>(cfg.num_devices)}});
      std::printf("checkpoint -> %s (next episode %zu)\n", ckpt_path.c_str(),
                  next_episode);
    };
  }

  auto history = trainer.train(hooks);
  if (!history.empty()) {
    std::printf("episode avg cost: first %.4f -> last %.4f\n",
                history.front().avg_cost, history.back().avg_cost);
  }

  trainer.agent().save(out);
  write_meta(out + ".meta",
             {{"devices", static_cast<double>(cfg.num_devices)},
              {"seed", static_cast<double>(cfg.seed)},
              {"lambda", cfg.cost.lambda},
              {"scale", args.flag("scale") ? 1.0 : 0.0},
              {"trace_samples", static_cast<double>(cfg.trace_samples)},
              {"bandwidth_ref", bw_ref},
              {"slot_seconds", env_cfg.slot_seconds},
              {"history_slots",
               static_cast<double>(env_cfg.history_slots)}});
  std::printf("saved %s.actor / %s.critic / %s.meta\n", out.c_str(),
              out.c_str(), out.c_str());
  return 0;
}

int cmd_eval(const ArgParser& args) {
  const auto ckpt = args.require("ckpt");
  const auto meta = read_meta(ckpt + ".meta");
  ExperimentConfig cfg =
      meta.at("scale") > 0.5 ? scale_config() : testbed_config();
  cfg.num_devices = static_cast<std::size_t>(meta.at("devices"));
  cfg.seed = static_cast<std::uint64_t>(meta.at("seed"));
  cfg.cost.lambda = meta.at("lambda");
  cfg.trace_samples = static_cast<std::size_t>(meta.at("trace_samples"));
  FlEnvConfig env_cfg;
  env_cfg.slot_seconds = meta.at("slot_seconds");
  env_cfg.history_slots = static_cast<std::size_t>(meta.at("history_slots"));
  const double bw_ref = meta.at("bandwidth_ref");

  auto sim = build_simulator(cfg);
  TrainerConfig tc = recommended_trainer_config(1);
  PpoAgent agent(cfg.num_devices * (env_cfg.history_slots + 1),
                 cfg.num_devices, tc.policy, tc.ppo, 1);
  agent.load(ckpt);

  const auto iters =
      static_cast<std::size_t>(args.get_int("iterations", 400));
  DrlController drl(agent, env_cfg, bw_ref);
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
  ExperimentConfig base = scenario_from(args);
  const auto seeds = static_cast<std::size_t>(args.get_int("seeds", 10));
  const auto iters =
      static_cast<std::size_t>(args.get_int("iterations", 200));

  std::vector<PolicySpec> roster;
  roster.push_back({"oracle", [](const SimulatorBase&) {
                      return std::make_unique<OracleController>();
                    }});
  roster.push_back({"heuristic", [](const SimulatorBase& sim) {
                      return std::make_unique<HeuristicController>(sim);
                    }});
  roster.push_back({"mpc-ewma", [](const SimulatorBase& sim) {
                      return std::make_unique<PredictiveController>(
                          sim, std::make_unique<EwmaPredictor>(0.2));
                    }});
  roster.push_back({"static", [](const SimulatorBase& sim) {
                      Rng rng(1);
                      return std::make_unique<StaticController>(sim, 10,
                                                                rng);
                    }});
  roster.push_back({"fullspeed", [](const SimulatorBase&) {
                      return std::make_unique<FullSpeedController>();
                    }});

  auto result = run_multi_seed(base, roster, seeds, iters);
  std::printf("%s\n", aggregate_header().c_str());
  for (const auto& p : result.policies) {
    std::printf("%s\n", format_aggregate_row(p).c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  fedra::set_log_level(fedra::LogLevel::Info);
  try {
    fedra::ArgParser args(argc - 1, argv + 1);
    const auto live_server = maybe_start_live(args);
    if (cmd == "traces") return cmd_traces(args);
    if (cmd == "solve") return cmd_solve(args);
    if (cmd == "train") return cmd_train(args);
    if (cmd == "eval") return cmd_eval(args);
    if (cmd == "multiseed") return cmd_multiseed(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fedra_cli %s: %s\n", cmd.c_str(), e.what());
    return 1;
  }
  return usage();
}
