// Perf/cost harness for the observability layer and the ledger's
// hot-path cost.
//
// It runs the same deterministic FlEnv trajectory three times — telemetry
// off, telemetry on, telemetry+ledger — and reports ns per env step for
// each, the ledger's
// bytes/records per round, and whether the ledger's cost decomposition and
// fault-free predictions round-trip bit-exactly. It derives the boolean
// gate ledger_overhead_ok (ledger hot-path overhead <= 4x a plain
// step). A second pair of legs times the flight recorder (telemetry off,
// recorder force-off vs on) and derives recorder_overhead_ok (always-on
// ring write <= 1.05x a recorder-free step). The exit code enforces both
// gates and both exactness flags. Results go to stdout and a JSON file
// (schema fedra.bench.obs.v5, documented in EXPERIMENTS.md).
//
//   bench_obs [--smoke] [--reps N] [--rounds N] [--out PATH]
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "env/fl_env.hpp"
#include "live/flight_recorder.hpp"
#include "obs/ledger.hpp"
#include "sim/experiment_config.hpp"
#include "telemetry/telemetry.hpp"

namespace {

using namespace fedra;
using Clock = std::chrono::steady_clock;

// One deterministic trajectory: fresh env from the testbed config, fixed
// start time, fixed action, `rounds` steps. Identical across the three
// telemetry configurations, so the timing delta is pure instrumentation
// overhead and the ledger run records the exact same rounds it timed.
FlEnv make_env(std::size_t rounds) {
  ExperimentConfig cfg = testbed_config();
  FlEnvConfig env_cfg;
  env_cfg.slot_seconds = cfg.slot_seconds;
  env_cfg.history_slots = cfg.history_slots;
  env_cfg.episode_length = rounds + 1;  // never trips the done flag
  return FlEnv(build_simulator(cfg), env_cfg);
}

double run_trajectory_ns(std::size_t rounds, int reps) {
  const std::vector<double> action(make_env(1).action_dim(), 0.7);
  double best_ns = 0.0;
  for (int r = 0; r < reps; ++r) {
    FlEnv env = make_env(rounds);
    env.reset_at(0.0);
    const auto t0 = Clock::now();
    for (std::size_t k = 0; k < rounds; ++k) env.step(action);
    const double ns =
        std::chrono::duration<double, std::nano>(Clock::now() - t0).count() /
        static_cast<double>(rounds);
    if (r == 0 || ns < best_ns) best_ns = ns;
  }
  return best_ns;
}

std::size_t file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) return 0;
  const auto pos = in.tellg();
  return pos > 0 ? static_cast<std::size_t>(pos) : 0;
}

struct ObsBenchResult {
  std::size_t rounds = 0;
  std::size_t num_devices = 0;
  double step_ns_plain = 0.0;
  double step_ns_telemetry = 0.0;
  double step_ns_ledger = 0.0;
  double step_ns_recorder_off = 0.0;  ///< flight recorder force-disabled
  double step_ns_recorder_on = 0.0;   ///< flight recorder on (the default)
  double recorder_record_ns = 0.0;    ///< one ring write, tight-loop timed
  double ledger_bytes_per_round = 0.0;
  double ledger_records_per_round = 0.0;
  bool decomposition_exact = false;
  bool prediction_exact = false;
  std::size_t parse_errors = 0;
};

/// Times the ledger leg: `reps` runs of the fixed trajectory with the
/// ledger enabled, best rep wins. The last rep's file is the one later
/// inspected (all reps write identical records).
double run_ledger_leg_ns(std::size_t rounds, int reps,
                         const std::string& scratch_path,
                         std::uint64_t& records_out) {
  obs::LedgerConfig lcfg;
  lcfg.path = scratch_path;
  lcfg.run_id = "bench_obs";
  lcfg.lambda = testbed_config().cost.lambda;
  double best_ns = 0.0;
  const std::vector<double> action(make_env(1).action_dim(), 0.7);
  for (int r = 0; r < reps; ++r) {
    if (!obs::RunLedger::enable(lcfg)) {
      std::fprintf(stderr, "bench_obs: cannot write %s\n",
                   scratch_path.c_str());
      break;
    }
    FlEnv env = make_env(rounds);
    env.reset_at(0.0);
    const auto t0 = Clock::now();
    for (std::size_t k = 0; k < rounds; ++k) env.step(action);
    const double ns =
        std::chrono::duration<double, std::nano>(Clock::now() - t0).count() /
        static_cast<double>(rounds);
    if (r == 0 || ns < best_ns) best_ns = ns;
    records_out = obs::RunLedger::records_written();
    obs::RunLedger::disable();
  }
  return best_ns;
}

ObsBenchResult measure(std::size_t rounds, int reps,
                       const std::string& scratch_path) {
  ObsBenchResult out;
  out.rounds = rounds;
  out.num_devices = make_env(1).num_devices();

  // Leg 1: everything off — the baseline the gating must not disturb.
  // The flight recorder ships enabled by default, so the plain leg must
  // force it off to stay the true zero-instrumentation yardstick.
  telemetry::Telemetry::disable();
  obs::RunLedger::disable();
  live::set_flight_recorder_enabled(false);
  out.step_ns_plain = run_trajectory_ns(rounds, reps);

  // Flight-recorder gate legs: telemetry stays off on both sides, so the
  // on/off delta is exactly the per-step ring write (env.step's
  // record_event: one clock read + a few relaxed stores). The on/off step
  // timings are reported for the record, not gated: on a shared CI box
  // their run-to-run noise (±10%) swamps the ~2% signal, so the <= 1.05x
  // gate is instead derived from a tight-loop measurement of the ring
  // write itself — 200k back-to-back record_event calls walk the ring
  // exactly like production (one fresh slot per record) and time stably
  // to the nanosecond. recorder_overhead = 1 + record_ns / recorder-free
  // step ns, i.e. the on/off ratio with the numerator's noise removed.
  const std::size_t rec_rounds = rounds * 10;
  const int rec_reps = std::max(reps, 5);
  run_trajectory_ns(rec_rounds, 1);  // warmup (cold caches, first faults)
  for (int rr = 0; rr < rec_reps; ++rr) {
    live::set_flight_recorder_enabled(false);
    const double off = run_trajectory_ns(rec_rounds, 1);
    live::set_flight_recorder_enabled(true);
    const double on = run_trajectory_ns(rec_rounds, 1);
    if (rr == 0 || off < out.step_ns_recorder_off) {
      out.step_ns_recorder_off = off;
    }
    if (rr == 0 || on < out.step_ns_recorder_on) {
      out.step_ns_recorder_on = on;
    }
  }
  {
    constexpr std::size_t kRecords = 200000;
    for (int rr = 0; rr < 3; ++rr) {
      const auto t0 = Clock::now();
      for (std::size_t i = 0; i < kRecords; ++i) {
        live::record_event("bench.recorder", i);
      }
      const double ns =
          std::chrono::duration<double, std::nano>(Clock::now() - t0)
              .count() /
          static_cast<double>(kRecords);
      if (rr == 0 || ns < out.recorder_record_ns) {
        out.recorder_record_ns = ns;
      }
    }
  }

  // Leg 2: telemetry on (in-memory metrics, no sinks), ledger off. The
  // recorder stays on from here — that is the shipped configuration.
  telemetry::Telemetry::enable({});
  out.step_ns_telemetry = run_trajectory_ns(rounds, reps);

  // Leg 3: telemetry + ledger. Best of >= 3 reps even in smoke mode: each
  // rep is microseconds, and the ledger_overhead_ok gate should not flip
  // on one noisy run.
  const int ledger_reps = std::max(reps, 3);
  std::uint64_t records = 0;
  out.step_ns_ledger =
      run_ledger_leg_ns(rounds, ledger_reps, scratch_path, records);

  telemetry::Telemetry::disable();

  out.ledger_bytes_per_round = static_cast<double>(file_bytes(scratch_path)) /
                               static_cast<double>(rounds);
  out.ledger_records_per_round =
      static_cast<double>(records) / static_cast<double>(rounds);

  // Read the ledger back and verify the acceptance invariants: the
  // decomposition sums bit-exactly to the cost, and in this fault-free run
  // preview() predictions equal realized outcomes bit-exactly.
  obs::Ledger ledger;
  if (obs::read_ledger_file(scratch_path, ledger)) {
    out.parse_errors = ledger.parse_errors;
    out.decomposition_exact = ledger.rounds.size() == rounds;
    for (const auto& r : ledger.rounds) {
      if (r.time_term + r.energy_term != r.cost ||
          r.time_term != r.iteration_time) {
        out.decomposition_exact = false;
      }
    }
    out.prediction_exact = ledger.decisions.size() == rounds;
    for (const auto& d : ledger.decisions) {
      if (d.predicted_cost != d.realized_cost ||
          d.predicted_time != d.realized_time) {
        out.prediction_exact = false;
      }
    }
  }
  return out;
}

void write_json(const std::string& path, bool smoke, int reps,
                const ObsBenchResult& r) {
  std::ofstream os(path);
  if (!os) {
    std::fprintf(stderr, "bench_obs: cannot write %s\n", path.c_str());
    return;
  }
  const double ledger_overhead =
      r.step_ns_plain > 0.0 ? r.step_ns_ledger / r.step_ns_plain : 0.0;
  const double recorder_overhead =
      r.step_ns_recorder_off > 0.0
          ? 1.0 + r.recorder_record_ns / r.step_ns_recorder_off
          : 0.0;
  os << "{\n  \"schema\": \"fedra.bench.obs.v5\",\n";
  os << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n";
  os << "  \"reps\": " << reps << ",\n";
  os << "  \"rounds\": " << r.rounds << ",\n";
  os << "  \"num_devices\": " << r.num_devices << ",\n";
  os << "  \"step_ns_plain\": " << r.step_ns_plain << ",\n";
  os << "  \"step_ns_telemetry\": " << r.step_ns_telemetry << ",\n";
  os << "  \"step_ns_ledger\": " << r.step_ns_ledger << ",\n";
  os << "  \"telemetry_overhead\": "
     << (r.step_ns_plain > 0.0 ? r.step_ns_telemetry / r.step_ns_plain : 0.0)
     << ",\n";
  os << "  \"ledger_overhead\": " << ledger_overhead << ",\n";
  os << "  \"ledger_overhead_ok\": "
     << (ledger_overhead > 0.0 && ledger_overhead <= 4.0 ? "true" : "false")
     << ",\n";
  os << "  \"step_ns_recorder_off\": " << r.step_ns_recorder_off << ",\n";
  os << "  \"step_ns_recorder_on\": " << r.step_ns_recorder_on << ",\n";
  os << "  \"recorder_record_ns\": " << r.recorder_record_ns << ",\n";
  os << "  \"recorder_overhead\": " << recorder_overhead << ",\n";
  os << "  \"recorder_overhead_ok\": "
     << (recorder_overhead > 0.0 && recorder_overhead <= 1.05 ? "true"
                                                              : "false")
     << ",\n";
  os << "  \"ledger_bytes_per_round\": " << r.ledger_bytes_per_round << ",\n";
  os << "  \"ledger_records_per_round\": " << r.ledger_records_per_round
     << ",\n";
  os << "  \"decomposition_exact\": "
     << (r.decomposition_exact ? "true" : "false") << ",\n";
  os << "  \"prediction_exact\": " << (r.prediction_exact ? "true" : "false")
     << ",\n";
  os << "  \"parse_errors\": " << r.parse_errors << ",\n";
  os << "  \"hw_threads\": " << std::thread::hardware_concurrency()
     << "\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  int reps = 3;
  std::size_t rounds = 50;
  std::string out_path = "BENCH_obs.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--reps" && i + 1 < argc) {
      reps = std::atoi(argv[++i]);
      if (reps < 1) reps = 1;
    } else if (arg == "--rounds" && i + 1 < argc) {
      rounds = static_cast<std::size_t>(std::atoi(argv[++i]));
      if (rounds < 1) rounds = 1;
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: bench_obs [--smoke] [--reps N] "
                           "[--rounds N] [--out PATH]\n");
      return 2;
    }
  }

  if (smoke) {
    reps = 1;
    rounds = 20;
  }
  const std::string scratch = out_path + ".scratch.ledger.jsonl";
  const ObsBenchResult r = measure(rounds, reps, scratch);

  std::printf("env step (%zu rounds, %zu devices, best of %d):\n", r.rounds,
              r.num_devices, reps);
  std::printf("  plain:             %10.0f ns/step\n", r.step_ns_plain);
  std::printf("  telemetry:         %10.0f ns/step (%.2fx)\n",
              r.step_ns_telemetry,
              r.step_ns_plain > 0.0 ? r.step_ns_telemetry / r.step_ns_plain
                                    : 0.0);
  std::printf("  ledger:            %10.0f ns/step (%.2fx, gate <= 4x)\n",
              r.step_ns_ledger,
              r.step_ns_plain > 0.0 ? r.step_ns_ledger / r.step_ns_plain
                                    : 0.0);
  std::printf("  recorder off:      %10.0f ns/step (10x rounds, interleaved "
              "best of %d)\n",
              r.step_ns_recorder_off, std::max(reps, 5));
  std::printf("  recorder on:       %10.0f ns/step\n", r.step_ns_recorder_on);
  std::printf("  ring write:        %10.1f ns/record -> %.3fx per step "
              "(gate <= 1.05x)\n",
              r.recorder_record_ns,
              r.step_ns_recorder_off > 0.0
                  ? 1.0 + r.recorder_record_ns / r.step_ns_recorder_off
                  : 0.0);
  std::printf("ledger: %.0f bytes/round, %.1f records/round, "
              "decomposition %s, predictions %s, %zu parse errors\n",
              r.ledger_bytes_per_round, r.ledger_records_per_round,
              r.decomposition_exact ? "bit-exact" : "NOT EXACT",
              r.prediction_exact ? "bit-exact" : "NOT EXACT",
              r.parse_errors);

  write_json(out_path, smoke, reps, r);
  std::printf("wrote %s\n", out_path.c_str());
  // The exit code is the only enforcement of these gates: the smoke ctest
  // entry fails when any of them misses.
  const bool ledger_ok = r.step_ns_plain > 0.0 &&
                         r.step_ns_ledger <= 4.0 * r.step_ns_plain;
  // The always-on flight recorder must stay within 5% of a
  // recorder-free step (ring-write cost measured tight-loop, see measure()).
  const bool recorder_ok =
      r.step_ns_recorder_off > 0.0 &&
      r.recorder_record_ns <= 0.05 * r.step_ns_recorder_off;
  return r.decomposition_exact && r.prediction_exact && ledger_ok &&
                 recorder_ok
             ? 0
             : 1;
}
