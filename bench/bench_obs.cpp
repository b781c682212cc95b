// Perf/cost regression harness for the observability layer and the
// ledger's hot-path cost.
//
// Measure mode (default) runs the same deterministic FlEnv trajectory four
// times — telemetry off, telemetry on, telemetry+sync ledger, telemetry+
// async ledger (the default config) — and reports ns per env step for
// each, the ledger's bytes/records per round, and whether the ledger's
// cost decomposition and fault-free predictions round-trip bit-exactly.
// It derives the boolean gate ledger_overhead_ok (async ledger hot-path
// overhead <= 4x a plain step), enforced exactly by compare mode. A
// second pair of legs times the flight recorder (telemetry off, recorder
// force-off vs on) and derives recorder_overhead_ok (always-on ring write
// <= 1.05x a recorder-free step). Results go to stdout and a JSON file
// (schema fedra.bench.obs.v4, documented in EXPERIMENTS.md).
//
//   bench_obs [--smoke] [--reps N] [--rounds N] [--out PATH]
//
// Compare mode diffs a fresh BENCH_*.json against a checked-in baseline
// (bench/baselines/) and is what the `perf` ctest label runs. It works on
// any fedra bench JSON (tensor or obs): keys are classified by name —
// timing keys (ns/gflops/speedup/overhead/reduction) warn by default and
// fail only under --strict-timing, allocation/size keys are upper-bounded
// with --tol slack, everything else (schemas, shapes, counts, exactness
// flags, and the "_ok" / reuse_not_slower boolean gates) must match
// exactly.
//
//   bench_obs --compare FRESH.json BASELINE.json
//             [--tol 0.1] [--timing-tol 0.5] [--strict-timing]
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "env/fl_env.hpp"
#include "live/flight_recorder.hpp"
#include "obs/json_min.hpp"
#include "obs/ledger.hpp"
#include "sim/experiment_config.hpp"
#include "telemetry/telemetry.hpp"

namespace {

using namespace fedra;
using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------------------
// Measure mode
// ---------------------------------------------------------------------------

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
  double step_ns_ledger_sync = 0.0;
  double step_ns_ledger = 0.0;  ///< async writer, the default config
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
/// ledger enabled (sync or async), best rep wins. The last rep's file is
/// the one later inspected (all reps write identical records).
double run_ledger_leg_ns(std::size_t rounds, int reps, bool async,
                         const std::string& scratch_path,
                         std::uint64_t* records_out) {
  obs::LedgerConfig lcfg;
  lcfg.path = scratch_path;
  lcfg.run_id = "bench_obs";
  lcfg.lambda = testbed_config().cost.lambda;
  lcfg.async = async;
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
    if (records_out != nullptr) {
      *records_out = obs::RunLedger::records_written();
    }
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

  // Flight-recorder gate legs (ISSUE 10): telemetry stays off on both
  // sides, so the on/off delta is exactly the per-step ring write
  // (env.step's record_event: one clock read + a few relaxed stores).
  // The on/off step timings are reported for the record (timing-classed,
  // warn-only in compare mode): on a shared CI box their run-to-run noise
  // (±10%) swamps the ~2% signal, so the <= 1.05x gate is instead derived
  // from a tight-loop measurement of the ring write itself — 200k
  // back-to-back record_event calls walk the ring exactly like production
  // (one fresh slot per record) and time stably to the nanosecond.
  // recorder_overhead = 1 + record_ns / recorder-free step ns, i.e. the
  // on/off ratio with the numerator's noise removed.
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

  // Legs 3+4: telemetry + ledger, synchronous then asynchronous. The
  // async leg runs last so the inspected file comes from the default
  // configuration (both produce byte-identical JSONL, which test_obs and
  // test_async_ledger already pin down).
  // Best of >= 3 reps even in smoke mode: each rep is microseconds, and
  // the ledger_overhead_ok gate should not flip on one noisy run.
  const int ledger_reps = std::max(reps, 3);
  std::uint64_t records = 0;
  out.step_ns_ledger_sync = run_ledger_leg_ns(rounds, ledger_reps,
                                              /*async=*/false, scratch_path,
                                              nullptr);
  out.step_ns_ledger = run_ledger_leg_ns(rounds, ledger_reps, /*async=*/true,
                                         scratch_path, &records);

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
  os << "{\n  \"schema\": \"fedra.bench.obs.v4\",\n";
  os << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n";
  os << "  \"reps\": " << reps << ",\n";
  os << "  \"rounds\": " << r.rounds << ",\n";
  os << "  \"num_devices\": " << r.num_devices << ",\n";
  os << "  \"step_ns_plain\": " << r.step_ns_plain << ",\n";
  os << "  \"step_ns_telemetry\": " << r.step_ns_telemetry << ",\n";
  os << "  \"step_ns_ledger_sync\": " << r.step_ns_ledger_sync << ",\n";
  os << "  \"step_ns_ledger\": " << r.step_ns_ledger << ",\n";
  os << "  \"telemetry_overhead\": "
     << (r.step_ns_plain > 0.0 ? r.step_ns_telemetry / r.step_ns_plain : 0.0)
     << ",\n";
  os << "  \"ledger_overhead_sync\": "
     << (r.step_ns_plain > 0.0 ? r.step_ns_ledger_sync / r.step_ns_plain
                               : 0.0)
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

// ---------------------------------------------------------------------------
// Compare mode
// ---------------------------------------------------------------------------

bool read_json_file(const std::string& path, obs::JsonValue& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "bench_obs: cannot open %s\n", path.c_str());
    return false;
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  if (!obs::parse_json(ss.str(), out)) {
    std::fprintf(stderr, "bench_obs: %s is not valid JSON\n", path.c_str());
    return false;
  }
  return true;
}

bool contains(const std::string& key, const char* needle) {
  return key.find(needle) != std::string::npos;
}

enum class KeyClass { kExact, kGate, kUpperBound, kTimingLower, kTimingHigher };

// Name-based classification shared across all fedra bench schemas. Checked
// in order: boolean gate keys first (pass/fail verdicts computed against
// fixed thresholds at measure time — a gate that holds in the baseline
// must keep holding, while a gate the baseline machine missed is free to
// start passing), then throughput-style keys (higher is better), then
// wall-clock keys, then allocation/size keys; everything else must match
// exactly.
KeyClass classify(const std::string& key) {
  if ((key.size() >= 3 && key.compare(key.size() - 3, 3, "_ok") == 0) ||
      contains(key, "not_slower")) {
    return KeyClass::kGate;
  }
  if (contains(key, "gflops") || contains(key, "speedup") ||
      contains(key, "reduction") || contains(key, "per_sec")) {
    return KeyClass::kTimingHigher;
  }
  if (contains(key, "ns_") || contains(key, "_ns") ||
      contains(key, "overhead") || contains(key, "_us")) {
    return KeyClass::kTimingLower;
  }
  if (contains(key, "alloc") || contains(key, "bytes")) {
    return KeyClass::kUpperBound;
  }
  return KeyClass::kExact;
}

int compare(const std::string& fresh_path, const std::string& base_path,
            double tol, double timing_tol, bool strict_timing) {
  obs::JsonValue fresh_v;
  obs::JsonValue base_v;
  if (!read_json_file(fresh_path, fresh_v) ||
      !read_json_file(base_path, base_v)) {
    return 2;
  }

  std::size_t failures = 0;
  std::size_t warnings = 0;
  std::size_t checked = 0;

  const auto fresh_str = obs::flatten_strings(fresh_v);
  for (const auto& [key, base] : obs::flatten_strings(base_v)) {
    ++checked;
    const auto it = fresh_str.find(key);
    if (it == fresh_str.end()) {
      std::printf("FAIL  %-40s missing in fresh run\n", key.c_str());
      ++failures;
    } else if (it->second != base) {
      std::printf("FAIL  %-40s \"%s\" != baseline \"%s\"\n", key.c_str(),
                  it->second.c_str(), base.c_str());
      ++failures;
    }
  }

  const auto fresh_num = obs::flatten_numbers(fresh_v);
  for (const auto& [key, base] : obs::flatten_numbers(base_v)) {
    ++checked;
    const auto it = fresh_num.find(key);
    if (it == fresh_num.end()) {
      std::printf("FAIL  %-40s missing in fresh run\n", key.c_str());
      ++failures;
      continue;
    }
    const double fresh = it->second;
    switch (classify(key)) {
      case KeyClass::kExact:
        if (!(std::abs(fresh - base) <= 1e-9)) {
          std::printf("FAIL  %-40s %g != baseline %g\n", key.c_str(), fresh,
                      base);
          ++failures;
        }
        break;
      case KeyClass::kGate:
        if (fresh + 1e-9 < base) {
          std::printf("FAIL  %-40s gate regressed: %g < baseline %g\n",
                      key.c_str(), fresh, base);
          ++failures;
        }
        break;
      case KeyClass::kUpperBound:
        if (!(fresh <= base * (1.0 + tol) + 1e-9)) {
          std::printf("FAIL  %-40s %g exceeds baseline %g (+%.0f%% tol)\n",
                      key.c_str(), fresh, base, tol * 100.0);
          ++failures;
        }
        break;
      case KeyClass::kTimingLower:
        if (!(fresh <= base * (1.0 + timing_tol) + 1e-9)) {
          std::printf("%s  %-40s %g slower than baseline %g (+%.0f%% tol)\n",
                      strict_timing ? "FAIL" : "WARN", key.c_str(), fresh,
                      base, timing_tol * 100.0);
          strict_timing ? ++failures : ++warnings;
        }
        break;
      case KeyClass::kTimingHigher:
        if (!(fresh >= base * (1.0 - timing_tol) - 1e-9)) {
          std::printf("%s  %-40s %g below baseline %g (-%.0f%% tol)\n",
                      strict_timing ? "FAIL" : "WARN", key.c_str(), fresh,
                      base, timing_tol * 100.0);
          strict_timing ? ++failures : ++warnings;
        }
        break;
    }
  }

  std::printf("bench_obs compare: %zu keys checked, %zu failed, %zu timing "
              "warnings (%s vs %s)\n",
              checked, failures, warnings, fresh_path.c_str(),
              base_path.c_str());
  return failures > 0 ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  bool do_compare = false;
  bool strict_timing = false;
  int reps = 3;
  std::size_t rounds = 50;
  double tol = 0.1;
  double timing_tol = 0.5;
  std::string out_path = "BENCH_obs.json";
  std::vector<std::string> positionals;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--compare") {
      do_compare = true;
    } else if (arg == "--strict-timing") {
      strict_timing = true;
    } else if (arg == "--reps" && i + 1 < argc) {
      reps = std::atoi(argv[++i]);
      if (reps < 1) reps = 1;
    } else if (arg == "--rounds" && i + 1 < argc) {
      rounds = static_cast<std::size_t>(std::atoi(argv[++i]));
      if (rounds < 1) rounds = 1;
    } else if (arg == "--tol" && i + 1 < argc) {
      tol = std::atof(argv[++i]);
    } else if (arg == "--timing-tol" && i + 1 < argc) {
      timing_tol = std::atof(argv[++i]);
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (arg.rfind("--", 0) != 0) {
      positionals.push_back(arg);
    } else {
      std::fprintf(
          stderr,
          "usage: bench_obs [--smoke] [--reps N] [--rounds N] [--out PATH]\n"
          "       bench_obs --compare FRESH.json BASELINE.json\n"
          "                 [--tol F] [--timing-tol F] [--strict-timing]\n");
      return 2;
    }
  }

  if (do_compare) {
    if (positionals.size() != 2) {
      std::fprintf(stderr,
                   "bench_obs --compare needs exactly two JSON paths\n");
      return 2;
    }
    return compare(positionals[0], positionals[1], tol, timing_tol,
                   strict_timing);
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
  std::printf("  ledger (sync):     %10.0f ns/step (%.2fx)\n",
              r.step_ns_ledger_sync,
              r.step_ns_plain > 0.0 ? r.step_ns_ledger_sync / r.step_ns_plain
                                    : 0.0);
  std::printf("  ledger (async):    %10.0f ns/step (%.2fx, gate <= 4x)\n",
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
  // The exit code enforces the gates directly, so the smoke ctest entry
  // fails even before the baseline diff runs.
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
