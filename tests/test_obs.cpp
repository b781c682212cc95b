// fedra::obs — run ledger, attribution, HTML report, and the ISSUE 5
// acceptance gates: zero-allocation round loop with telemetry off, and a
// ledger whose per-round cost decomposition round-trips bit-exactly.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/drl_controller.hpp"
#include "env/fl_env.hpp"
#include "fault/fault_model.hpp"
#include "fl/fedavg.hpp"
#include "obs/attribution.hpp"
#include "obs/json_min.hpp"
#include "obs/ledger.hpp"
#include "obs/record_builders.hpp"
#include "obs/report.hpp"
#include "sim/experiment_config.hpp"
#include "telemetry/telemetry.hpp"
#include "tensor/matrix.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace fedra;

// Every test that enables the facade must leave it off for its neighbors,
// pass or fail.
struct ObsGuard {
  ObsGuard() {
    obs::RunLedger::disable();
    telemetry::Telemetry::disable();
  }
  ~ObsGuard() {
    obs::RunLedger::disable();
    telemetry::Telemetry::disable();
  }
};

std::string temp_path(const char* name) {
  return ::testing::TempDir() + name;
}

FlEnvConfig testbed_env_config(std::size_t episode_length) {
  const ExperimentConfig cfg = testbed_config();
  FlEnvConfig env_cfg;
  env_cfg.slot_seconds = cfg.slot_seconds;
  env_cfg.history_slots = cfg.history_slots;
  env_cfg.episode_length = episode_length;
  return env_cfg;
}

// Runs `rounds` deterministic FlEnv steps with the ledger on and returns
// (in-memory results, scaled rewards, decision-time states).
struct EnvRun {
  std::vector<IterationResult> infos;
  std::vector<double> rewards;
  std::vector<std::vector<double>> states;
  double lambda = 0.0;
  std::size_t state_dim = 0;
};

EnvRun run_env_with_ledger(const std::string& path, std::size_t rounds,
                           bool with_faults) {
  const ExperimentConfig cfg = testbed_config();
  FlEnv env(build_simulator(cfg), testbed_env_config(rounds + 1));
  if (with_faults) {
    fault::FaultConfig fcfg;
    fcfg.dropout_prob = 0.4;
    fcfg.upload_failure_prob = 0.4;
    env.set_fault_model(fault::FaultModel(fcfg, 11));
  }

  telemetry::Telemetry::enable({});
  obs::LedgerConfig lcfg;
  lcfg.path = path;
  lcfg.run_id = "test_obs";
  lcfg.lambda = cfg.cost.lambda;
  EXPECT_TRUE(obs::RunLedger::enable(lcfg));

  EnvRun run;
  run.lambda = cfg.cost.lambda;
  run.state_dim = env.state_dim();
  std::vector<double> state = env.reset_at(0.0);
  const std::vector<double> action(env.action_dim(), 0.7);
  for (std::size_t k = 0; k < rounds; ++k) {
    run.states.push_back(state);
    StepResult r = env.step(action);
    run.infos.push_back(r.info);
    run.rewards.push_back(r.reward);
    state = r.state;
  }
  obs::RunLedger::disable();
  telemetry::Telemetry::disable();
  return run;
}

// ---------------------------------------------------------------------------
// json_min

TEST(JsonMin, ParsesValuesAndRejectsGarbage) {
  obs::JsonValue v;
  ASSERT_TRUE(obs::parse_json(
      R"({"a":-2.5e-3,"b":[1,true,null],"s":"xA\n","o":{"k":"v"}})",
      v));
  ASSERT_TRUE(v.is_object());
  EXPECT_EQ(v.get_number("a"), -2.5e-3);
  const obs::JsonValue* b = v.find("b");
  ASSERT_NE(b, nullptr);
  ASSERT_TRUE(b->is_array());
  ASSERT_EQ(b->array.size(), 3u);
  EXPECT_EQ(b->array[0].number, 1.0);
  EXPECT_TRUE(b->array[1].bool_or(false));
  EXPECT_EQ(v.get_string("s"), "xA\n");
  ASSERT_NE(v.find("o"), nullptr);
  EXPECT_EQ(v.find("o")->get_string("k"), "v");

  EXPECT_FALSE(obs::parse_json("{\"a\":1", v));        // truncated
  EXPECT_FALSE(obs::parse_json("{\"a\":1} extra", v)); // trailing garbage
  EXPECT_FALSE(obs::parse_json("{\"a\":01}", v));      // bad number
  EXPECT_FALSE(obs::parse_json("", v));
  EXPECT_FALSE(obs::parse_json("{\"a\":\"\x01\"}", v)); // raw control char
  // RFC 8259 number grammar: no '+' sign, no bare fraction or dot.
  for (const char* number : {"+1", ".5", "1.", "-.5"}) {
    EXPECT_FALSE(obs::parse_json(number, v)) << number;
    EXPECT_FALSE(obs::parse_json(std::string("[") + number + "]", v))
        << number;
  }
}

TEST(JsonMin, DoublesRoundTripBitExact) {
  const double values[] = {1.0 / 3.0, 0.1, 1e-300, 12345.678901234567,
                           -7.234e17};
  for (double expect : values) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "{\"x\":%.17g}", expect);
    obs::JsonValue v;
    ASSERT_TRUE(obs::parse_json(buf, v));
    EXPECT_EQ(v.get_number("x"), expect) << buf;
  }
}

// ---------------------------------------------------------------------------
// Ledger writer/reader

TEST(Ledger, RecordsRoundTripBitExact) {
  obs::RoundRecord r;
  r.round = 7;
  r.source = "async";
  r.start_time = 1.0 / 3.0;
  r.iteration_time = 12.345678901234567;
  r.total_energy = 98.7654321e-3;
  r.time_term = r.iteration_time;
  r.energy_term = 0.1 * r.total_energy;
  r.cost = r.time_term + r.energy_term;
  r.reward = -r.cost;
  r.num_scheduled = 3;
  r.num_completed = 2;
  r.num_dropouts = 1;
  r.total_retries = 4;
  // Ids are row indices (the reader rejects an id past the row count), so
  // device 2 rides behind two default rows.
  for (std::uint32_t id = 0; id < 2; ++id) {
    obs::DeviceRoundRecord row;
    row.device = id;
    r.devices.push_back(row);
  }
  obs::DeviceRoundRecord d;
  d.device = 2;
  d.participated = true;
  d.completed = false;
  d.failure = "dropout";
  d.retries = 4;
  d.freq_hz = 1.9e9;
  d.compute_time = 3.3333333333333335;
  d.comm_time = 1e-17;
  d.idle_time = 0.25;
  d.compute_energy = 2.5;
  d.comm_energy = 0.5;
  d.energy = 3.0;
  d.avg_bandwidth = 1.25e6;
  r.devices.push_back(d);

  obs::DecisionRecord dec;
  dec.round = 7;
  dec.source = "ctl";
  dec.predicted_cost = 4.2;
  dec.realized_cost = 4.8;
  dec.reward = -0.24;
  dec.action = {0.5, 1.0 / 7.0};
  dec.state = {0.1, 0.2, 0.3};

  obs::FlRoundRecord flr;
  flr.round = 3;
  flr.global_loss = 0.693;
  flr.global_accuracy = 0.75;
  flr.mean_client_loss = 0.7;
  flr.num_participants = 4;
  flr.num_delivered = 3;

  std::istringstream in(
      "{\"type\":\"header\",\"schema\":\"fedra.ledger.v1\","
      "\"run_id\":\"rt\",\"lambda\":0.1}\n" +
      obs::round_record_json(r) + "\n" + obs::decision_record_json(dec) +
      "\n" + obs::fl_round_record_json(flr) + "\n");
  const obs::Ledger ledger = obs::read_ledger(in);

  EXPECT_EQ(ledger.schema, obs::kLedgerSchema);
  EXPECT_EQ(ledger.run_id, "rt");
  EXPECT_EQ(ledger.lambda, 0.1);
  EXPECT_EQ(ledger.parse_errors, 0u);
  ASSERT_EQ(ledger.rounds.size(), 1u);
  const obs::RoundRecord& pr = ledger.rounds[0];
  EXPECT_EQ(pr.round, r.round);
  EXPECT_EQ(pr.source, r.source);
  EXPECT_EQ(pr.start_time, r.start_time);
  EXPECT_EQ(pr.iteration_time, r.iteration_time);
  EXPECT_EQ(pr.total_energy, r.total_energy);
  EXPECT_EQ(pr.time_term, r.time_term);
  EXPECT_EQ(pr.energy_term, r.energy_term);
  EXPECT_EQ(pr.cost, r.cost);
  EXPECT_EQ(pr.reward, r.reward);
  EXPECT_EQ(pr.num_scheduled, r.num_scheduled);
  EXPECT_EQ(pr.num_completed, r.num_completed);
  EXPECT_EQ(pr.num_dropouts, r.num_dropouts);
  EXPECT_EQ(pr.total_retries, r.total_retries);
  ASSERT_EQ(pr.devices.size(), 3u);
  const obs::DeviceRoundRecord& pd = pr.devices[2];
  EXPECT_EQ(pd.device, d.device);
  EXPECT_EQ(pd.participated, d.participated);
  EXPECT_EQ(pd.completed, d.completed);
  EXPECT_EQ(pd.failure, d.failure);
  EXPECT_EQ(pd.retries, d.retries);
  EXPECT_EQ(pd.freq_hz, d.freq_hz);
  EXPECT_EQ(pd.compute_time, d.compute_time);
  EXPECT_EQ(pd.comm_time, d.comm_time);
  EXPECT_EQ(pd.idle_time, d.idle_time);
  EXPECT_EQ(pd.compute_energy, d.compute_energy);
  EXPECT_EQ(pd.comm_energy, d.comm_energy);
  EXPECT_EQ(pd.energy, d.energy);
  EXPECT_EQ(pd.avg_bandwidth, d.avg_bandwidth);

  ASSERT_EQ(ledger.decisions.size(), 1u);
  const obs::DecisionRecord& pdec = ledger.decisions[0];
  EXPECT_EQ(pdec.round, dec.round);
  EXPECT_EQ(pdec.source, dec.source);
  EXPECT_EQ(pdec.predicted_cost, dec.predicted_cost);
  EXPECT_EQ(pdec.realized_cost, dec.realized_cost);
  EXPECT_EQ(pdec.reward, dec.reward);
  EXPECT_EQ(pdec.action, dec.action);
  EXPECT_EQ(pdec.state, dec.state);

  ASSERT_EQ(ledger.fl_rounds.size(), 1u);
  EXPECT_EQ(ledger.fl_rounds[0].round, flr.round);
  EXPECT_EQ(ledger.fl_rounds[0].global_loss, flr.global_loss);
  EXPECT_EQ(ledger.fl_rounds[0].num_delivered, flr.num_delivered);
}

TEST(Ledger, ReaderSkipsTornAndUnknownLines) {
  obs::RoundRecord r;
  r.round = 1;
  const std::string good = obs::round_record_json(r);
  std::istringstream in(
      "{\"type\":\"header\",\"schema\":\"fedra.ledger.v1\","
      "\"run_id\":\"x\",\"lambda\":0.5}\n" +
      good + "\n" +
      good.substr(0, good.size() / 2) + "\n" +  // torn mid-write
      "not json at all\n" +
      "\n" +  // blank: skipped silently
      "{\"type\":\"future_record\",\"round\":9}\n" + good + "\n");
  const obs::Ledger ledger = obs::read_ledger(in);
  EXPECT_EQ(ledger.rounds.size(), 2u);
  EXPECT_EQ(ledger.parse_errors, 2u);
  EXPECT_EQ(ledger.unknown_records, 1u);
  EXPECT_EQ(ledger.lambda, 0.5);
}

TEST(Ledger, ReaderRejectsDeviceIdsPastTheRowCount) {
  // make_round_record writes id == row index; any id at or past the
  // line's own row count is corrupt. 4294967295 used to wrap the
  // attribution's table size to 0 and write out of bounds.
  obs::RoundRecord r;
  r.round = 0;
  for (std::uint32_t id = 0; id < 3; ++id) {
    obs::DeviceRoundRecord d;
    d.device = id;
    d.participated = true;
    d.compute_time = 1.0 + id;
    r.devices.push_back(d);
  }
  const std::string good = obs::round_record_json(r);
  auto with_id = [&](const std::string& from, const std::string& to) {
    std::string line = good;
    const std::size_t at = line.find(from);
    EXPECT_NE(at, std::string::npos);
    return line.replace(at, from.size(), to);
  };
  std::istringstream in(
      good + "\n" + with_id("\"id\":1,", "\"id\":4294967295,") + "\n" +
      with_id("\"id\":2,", "\"id\":3,") + "\n" +
      with_id("\"id\":1,", "\"id\":1e300,") + "\n" +
      with_id("\"id\":2,", "\"id\":-2,") + "\n");
  const obs::Ledger ledger = obs::read_ledger(in);
  // Negative ids read as 0, which is in range.
  EXPECT_EQ(ledger.parse_errors, 3u);
  ASSERT_EQ(ledger.rounds.size(), 2u);
  for (const auto& round : ledger.rounds) {
    for (const auto& d : round.devices) {
      EXPECT_LT(d.device, round.devices.size());
    }
  }
  const obs::RunAttribution run = obs::attribute(ledger);
  EXPECT_EQ(run.devices.size(), 3u);
  EXPECT_EQ(run.rounds.size(), 2u);
}

TEST(Ledger, RoundRecordCapsDeviceRowsAt1024) {
  // A 2000-device round keeps the first kMaxDeviceRows per-device rows and
  // counts the rest, through a write/read cycle.
  IterationResult result;
  result.num_scheduled = 2000;
  result.devices.resize(2000);
  for (std::size_t i = 0; i < result.devices.size(); ++i) {
    result.devices[i].participated = true;
    result.devices[i].compute_time = static_cast<double>(i);
  }
  const obs::RoundRecord r =
      obs::make_round_record(7, result, CostParams{});
  EXPECT_EQ(r.devices.size(), 1024u);
  EXPECT_EQ(r.devices_omitted, 976u);
  EXPECT_EQ(r.devices.back().device, 1023u);
  EXPECT_EQ(r.devices.back().compute_time, 1023.0);

  std::istringstream in(obs::round_record_json(r) + "\n");
  const obs::Ledger ledger = obs::read_ledger(in);
  ASSERT_EQ(ledger.rounds.size(), 1u);
  EXPECT_EQ(ledger.rounds[0].devices.size(), 1024u);
  EXPECT_EQ(ledger.rounds[0].devices_omitted, 976u);
  EXPECT_EQ(ledger.parse_errors, 0u);
}

TEST(Ledger, EnableFailsOnUnwritablePath) {
  ObsGuard guard;
  obs::LedgerConfig cfg;
  cfg.path = "/nonexistent-dir-for-fedra-test/sub/run.jsonl";
  EXPECT_FALSE(obs::RunLedger::enable(cfg));
  EXPECT_FALSE(obs::RunLedger::enabled());
}

TEST(Ledger, CountsRecordsAndDisableIsIdempotent) {
  ObsGuard guard;
  const std::string path = temp_path("count.ledger.jsonl");
  obs::LedgerConfig cfg;
  cfg.path = path;
  cfg.run_id = "count";
  ASSERT_TRUE(obs::RunLedger::enable(cfg));
  obs::RunLedger::record_round({});
  obs::RunLedger::record_fl_round({});
  EXPECT_EQ(obs::RunLedger::records_written(), 2u);
  obs::RunLedger::disable();
  obs::RunLedger::disable();
  // Records after disable are dropped, not buffered.
  obs::RunLedger::record_round({});
  std::ifstream in(path);
  std::string line;
  std::size_t lines = 0;
  while (std::getline(in, line)) ++lines;
  EXPECT_EQ(lines, 3u);  // header + 2 records
}

// ---------------------------------------------------------------------------
// Acceptance gate: zero-allocation round loop with telemetry off.

TEST(Obs, ZeroAllocationsWhenTelemetryOff) {
  ObsGuard guard;
  ASSERT_FALSE(telemetry::Telemetry::enabled());

  const ExperimentConfig cfg = testbed_config();
  FlSimulator sim = build_simulator(cfg);
  const FlEnvConfig env_cfg = testbed_env_config(100);
  PolicyConfig pcfg;
  PpoConfig ppo_cfg;
  PpoAgent agent(sim.num_devices() * (env_cfg.history_slots + 1),
                 sim.num_devices(), pcfg, ppo_cfg, 5);
  DrlController controller(agent, env_cfg, 1e6);

  // Warm up the instrumented loop (simulator step + controller decide +
  // observe — every obs call site), then require the steady state to touch
  // the tensor heap zero times.
  for (int i = 0; i < 5; ++i) {
    const auto freqs = controller.decide(sim);
    controller.observe(sim.step(freqs, StepOptions{}));
  }
  const TensorAllocStats before = tensor_alloc_stats();
  for (int i = 0; i < 10; ++i) {
    const auto freqs = controller.decide(sim);
    controller.observe(sim.step(freqs, StepOptions{}));
  }
  const TensorAllocStats after = tensor_alloc_stats();

  EXPECT_EQ(after.allocs, before.allocs);
  EXPECT_EQ(after.bytes, before.bytes);
  EXPECT_EQ(obs::RunLedger::records_written(), 0u);
}

// The ledger's one switch: with telemetry off, an enabled ledger still
// records every simulator round.
TEST(Obs, LedgerRecordsEveryRoundWithTelemetryOff) {
  ObsGuard guard;
  ASSERT_FALSE(telemetry::Telemetry::enabled());
  const std::string path = temp_path("no_telemetry.ledger.jsonl");
  obs::LedgerConfig lcfg;
  lcfg.path = path;
  lcfg.run_id = "no_telemetry";
  ASSERT_TRUE(obs::RunLedger::enable(lcfg));

  FlSimulator sim = build_simulator(testbed_config());
  const std::vector<double> freqs(sim.num_devices(), 1e9);
  constexpr std::size_t kRounds = 7;
  std::vector<IterationResult> results;
  for (std::size_t k = 0; k < kRounds; ++k) {
    results.push_back(sim.step(freqs, StepOptions{}));
  }
  EXPECT_EQ(obs::RunLedger::records_written(), kRounds);
  obs::RunLedger::disable();

  obs::Ledger ledger;
  ASSERT_TRUE(obs::read_ledger_file(path, ledger));
  ASSERT_EQ(ledger.rounds.size(), kRounds);
  for (std::size_t k = 0; k < kRounds; ++k) {
    EXPECT_EQ(ledger.rounds[k].round, k);
    EXPECT_EQ(ledger.rounds[k].iteration_time, results[k].iteration_time);
  }
}

// ---------------------------------------------------------------------------
// Acceptance gate: 50-round run, decomposition and predictions bit-exact.

TEST(Obs, FiftyRoundLedgerDecomposesBitExactly) {
  ObsGuard guard;
  const std::string path = temp_path("run50.ledger.jsonl");
  const std::size_t kRounds = 50;
  const EnvRun run = run_env_with_ledger(path, kRounds, /*with_faults=*/false);

  obs::Ledger ledger;
  std::string error;
  ASSERT_TRUE(obs::read_ledger_file(path, ledger, &error)) << error;
  EXPECT_EQ(ledger.schema, obs::kLedgerSchema);
  EXPECT_EQ(ledger.run_id, "test_obs");
  EXPECT_EQ(ledger.lambda, run.lambda);
  EXPECT_EQ(ledger.parse_errors, 0u);
  ASSERT_EQ(ledger.rounds.size(), kRounds);
  ASSERT_EQ(ledger.decisions.size(), kRounds);

  for (std::size_t k = 0; k < kRounds; ++k) {
    const obs::RoundRecord& r = ledger.rounds[k];
    const IterationResult& info = run.infos[k];
    EXPECT_EQ(r.round, k);
    EXPECT_EQ(r.source, "sim");
    // Round-trip: every double equals the simulator's value bitwise.
    EXPECT_EQ(r.start_time, info.start_time);
    EXPECT_EQ(r.iteration_time, info.iteration_time);
    EXPECT_EQ(r.total_energy, info.total_energy);
    EXPECT_EQ(r.cost, info.cost);
    EXPECT_EQ(r.reward, info.reward);
    // The decomposition: T^k + lambda * Sigma E == cost, bit-exactly.
    EXPECT_EQ(r.time_term, info.iteration_time);
    EXPECT_EQ(r.energy_term, run.lambda * info.total_energy);
    EXPECT_EQ(r.time_term + r.energy_term, r.cost);
    ASSERT_EQ(r.devices.size(), info.devices.size());
    double device_energy = 0.0;
    for (std::size_t i = 0; i < r.devices.size(); ++i) {
      const obs::DeviceRoundRecord& d = r.devices[i];
      const DeviceOutcome& o = info.devices[i];
      EXPECT_EQ(d.freq_hz, o.freq_hz);
      EXPECT_EQ(d.compute_time, o.compute_time);
      EXPECT_EQ(d.comm_time, o.comm_time);
      EXPECT_EQ(d.idle_time, o.idle_time);
      EXPECT_EQ(d.energy, o.energy);
      EXPECT_EQ(d.avg_bandwidth, o.avg_bandwidth);
      EXPECT_TRUE(d.completed);
      EXPECT_EQ(d.failure, "none");
      device_energy += d.energy;
    }
    // The sim accumulates total energy left-to-right over devices; the
    // parsed per-device slices reproduce it exactly.
    EXPECT_EQ(device_energy, r.total_energy);

    const obs::DecisionRecord& dec = ledger.decisions[k];
    EXPECT_EQ(dec.round, k);
    EXPECT_EQ(dec.source, "env");
    // Fault-free run: the fault-free preview IS the realized outcome.
    EXPECT_EQ(dec.predicted_time, info.iteration_time);
    EXPECT_EQ(dec.predicted_energy, info.total_energy);
    EXPECT_EQ(dec.predicted_cost, info.cost);
    EXPECT_EQ(dec.realized_cost, info.cost);
    EXPECT_EQ(dec.reward, run.rewards[k]);
    ASSERT_EQ(dec.action.size(), 3u);
    ASSERT_EQ(dec.state.size(), run.state_dim);
    EXPECT_EQ(dec.state, run.states[k]);
  }

  const obs::RunAttribution attr = obs::attribute(ledger);
  ASSERT_EQ(attr.rounds.size(), kRounds);
  EXPECT_EQ(attr.predictions.size(), kRounds);
  EXPECT_EQ(attr.mean_abs_prediction_error, 0.0);
  EXPECT_EQ(attr.total_failures, 0u);
  double cum = 0.0;
  for (std::size_t k = 0; k < kRounds; ++k) {
    const obs::RoundAttribution& a = attr.rounds[k];
    EXPECT_GE(a.straggler, 0);
    // The straggler's path is the makespan.
    EXPECT_DOUBLE_EQ(a.straggler_time, ledger.rounds[k].iteration_time);
    cum += ledger.rounds[k].cost;
    EXPECT_DOUBLE_EQ(a.cum_cost, cum);
  }
  EXPECT_DOUBLE_EQ(attr.total_cost, cum);
}

// Size budget on the 20-round testbed trajectory bench_obs times: two
// records per round (round + decision), no torn lines, and at most 2218
// bytes per round, header included (2016.75 measured when the budget was
// set, plus 10% slack). A new ledger field or record type fails here.
TEST(Obs, TwentyRoundLedgerStaysWithinBudget) {
  ObsGuard guard;
  const std::string path = temp_path("run20.ledger.jsonl");
  const std::size_t kRounds = 20;
  run_env_with_ledger(path, kRounds, /*with_faults=*/false);

  obs::Ledger ledger;
  std::string error;
  ASSERT_TRUE(obs::read_ledger_file(path, ledger, &error)) << error;
  EXPECT_EQ(ledger.parse_errors, 0u);
  EXPECT_EQ(ledger.rounds.size() + ledger.decisions.size() +
                ledger.fl_rounds.size() + ledger.unknown_records,
            2 * kRounds);

  std::ifstream in(path, std::ios::binary | std::ios::ate);
  const double bytes_per_round =
      static_cast<double>(in.tellg()) / static_cast<double>(kRounds);
  EXPECT_LE(bytes_per_round, 2218.0);
}

TEST(Obs, FaultyRunRecordsFailures) {
  ObsGuard guard;
  const std::string path = temp_path("faults.ledger.jsonl");
  const std::size_t kRounds = 30;
  const EnvRun run = run_env_with_ledger(path, kRounds, /*with_faults=*/true);

  obs::Ledger ledger;
  ASSERT_TRUE(obs::read_ledger_file(path, ledger));
  ASSERT_EQ(ledger.rounds.size(), kRounds);

  std::size_t failures = 0;
  std::size_t failed_device_records = 0;
  for (std::size_t k = 0; k < kRounds; ++k) {
    const obs::RoundRecord& r = ledger.rounds[k];
    const IterationResult& info = run.infos[k];
    EXPECT_EQ(r.num_scheduled, info.num_scheduled);
    EXPECT_EQ(r.num_completed, info.num_completed);
    EXPECT_EQ(r.num_dropouts, info.num_dropouts);
    EXPECT_EQ(r.num_upload_failures, info.num_upload_failures);
    EXPECT_EQ(r.total_retries, info.total_retries);
    failures += r.num_scheduled - r.num_completed;
    for (const auto& d : r.devices) {
      if (d.failure != "none") {
        EXPECT_FALSE(d.completed);
        ++failed_device_records;
      }
    }
  }
  // The config injects dropouts/upload failures at 40% per device-round;
  // 30 deterministic rounds always catch some.
  EXPECT_GT(failures, 0u);
  EXPECT_EQ(failed_device_records >= failures, true);

  const obs::RunAttribution attr = obs::attribute(ledger);
  EXPECT_EQ(attr.total_failures, failures);
}

TEST(Obs, FedAvgRoundsLandInLedger) {
  ObsGuard guard;
  const std::string path = temp_path("fedavg.ledger.jsonl");
  telemetry::Telemetry::enable({});
  obs::LedgerConfig cfg;
  cfg.path = path;
  cfg.run_id = "fedavg";
  ASSERT_TRUE(obs::RunLedger::enable(cfg));

  Rng rng(3);
  Dataset data = make_gaussian_mixture(96, 8, 3, rng);
  auto shards = split_iid(data, 3, rng);
  ModelSpec spec;
  spec.sizes = {8, 12, 3};
  std::vector<FlClient> clients;
  for (std::size_t i = 0; i < shards.size(); ++i) {
    clients.emplace_back(std::move(shards[i]), spec, 50 + i);
  }
  FedAvgServer server(std::move(clients), spec, 5);
  LocalTrainConfig ltc;
  ltc.tau = 0.25;
  ThreadPool pool(2);
  std::vector<RoundMetrics> metrics;
  for (int i = 0; i < 3; ++i) metrics.push_back(server.run_round(ltc, pool));

  obs::RunLedger::disable();
  telemetry::Telemetry::disable();

  obs::Ledger ledger;
  ASSERT_TRUE(obs::read_ledger_file(path, ledger));
  ASSERT_EQ(ledger.fl_rounds.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(ledger.fl_rounds[i].round, metrics[i].round);
    EXPECT_EQ(ledger.fl_rounds[i].global_loss, metrics[i].global_loss);
    EXPECT_EQ(ledger.fl_rounds[i].num_participants,
              metrics[i].num_participants);
    EXPECT_EQ(ledger.fl_rounds[i].num_delivered, metrics[i].num_delivered);
  }
}

// ---------------------------------------------------------------------------
// Attribution on a hand-built ledger.

TEST(Attribution, FindsStragglerBottleneckAndCumulativeSplit) {
  obs::Ledger ledger;
  obs::RoundRecord r0;
  r0.round = 0;
  r0.iteration_time = 4.0;
  r0.time_term = 4.0;
  r0.energy_term = 1.0;
  r0.cost = 5.0;
  r0.num_scheduled = 2;
  r0.num_completed = 2;
  obs::DeviceRoundRecord a;
  a.device = 0;
  a.participated = true;
  a.completed = true;
  a.compute_time = 2.0;
  a.comm_time = 1.0;
  obs::DeviceRoundRecord b;
  b.device = 1;
  b.participated = true;
  b.completed = true;
  b.compute_time = 1.0;
  b.comm_time = 3.0;  // 4.0 total: the straggler, comm-bound
  r0.devices = {a, b};
  ledger.rounds.push_back(r0);

  obs::RoundRecord r1;
  r1.round = 1;
  r1.iteration_time = 6.0;
  r1.time_term = 6.0;
  r1.energy_term = 2.0;
  r1.cost = 8.0;
  r1.num_scheduled = 1;
  r1.num_completed = 0;
  obs::DeviceRoundRecord c;
  c.device = 0;
  c.participated = true;
  c.completed = false;
  c.failure = "crash";
  c.compute_time = 5.0;
  c.comm_time = 1.0;  // compute-bound straggler
  obs::DeviceRoundRecord idle;
  idle.device = 1;
  idle.participated = false;
  r1.devices = {c, idle};
  ledger.rounds.push_back(r1);

  obs::DecisionRecord dec;
  dec.round = 0;
  dec.predicted_cost = 5.0;
  dec.realized_cost = 8.0;
  ledger.decisions.push_back(dec);

  const obs::RunAttribution attr = obs::attribute(ledger);
  ASSERT_EQ(attr.rounds.size(), 2u);
  EXPECT_EQ(attr.rounds[0].straggler, 1);
  EXPECT_EQ(attr.rounds[0].bottleneck, obs::BottleneckPhase::kComm);
  EXPECT_EQ(attr.rounds[1].straggler, 0);
  EXPECT_EQ(attr.rounds[1].bottleneck, obs::BottleneckPhase::kCompute);
  EXPECT_EQ(attr.rounds[1].failures, 1u);
  EXPECT_DOUBLE_EQ(attr.rounds[1].cum_cost, 13.0);
  EXPECT_DOUBLE_EQ(attr.rounds[1].cum_time_term, 10.0);
  EXPECT_DOUBLE_EQ(attr.rounds[1].cum_energy_term, 3.0);
  EXPECT_EQ(attr.compute_bound_rounds, 1u);
  EXPECT_EQ(attr.comm_bound_rounds, 1u);
  EXPECT_EQ(attr.total_failures, 1u);
  ASSERT_EQ(attr.devices.size(), 2u);
  EXPECT_EQ(attr.devices[1].straggler_rounds, 1u);
  EXPECT_EQ(attr.devices[0].straggler_rounds, 1u);
  EXPECT_EQ(attr.devices[0].failures, 1u);
  EXPECT_EQ(attr.devices[1].rounds_participated, 1u);
  ASSERT_EQ(attr.predictions.size(), 1u);
  EXPECT_DOUBLE_EQ(attr.predictions[0].error, 3.0);
  EXPECT_DOUBLE_EQ(attr.mean_abs_prediction_error, 3.0);
}

// ---------------------------------------------------------------------------
// HTML report

TEST(Report, EmitsSelfContainedHtml) {
  ObsGuard guard;
  const std::string path = temp_path("report.ledger.jsonl");
  run_env_with_ledger(path, 10, /*with_faults=*/true);

  obs::Ledger ledger;
  ASSERT_TRUE(obs::read_ledger_file(path, ledger));
  const obs::RunAttribution attr = obs::attribute(ledger);
  obs::ReportOptions options;
  options.title = "unit <test> run";
  options.source_path = path;
  options.phases.push_back({"sim.step", 10, 1234.5, 200.0});
  const std::string html = obs::render_report_html(ledger, attr, options);

  EXPECT_EQ(html.rfind("<!DOCTYPE html>", 0), 0u);
  EXPECT_NE(html.find("</html>"), std::string::npos);
  EXPECT_NE(html.find("<svg"), std::string::npos);
  // Title is escaped, never raw.
  EXPECT_NE(html.find("unit &lt;test&gt; run"), std::string::npos);
  EXPECT_EQ(html.find("unit <test> run"), std::string::npos);
  // Self-contained: no external scripts, stylesheets, or fetches.
  EXPECT_EQ(html.find("<script src"), std::string::npos);
  EXPECT_EQ(html.find("<link"), std::string::npos);
  EXPECT_EQ(html.find("http://"), std::string::npos);
  EXPECT_EQ(html.find("https://"), std::string::npos);
  // Dark mode + table twins + telemetry phases made it in.
  EXPECT_NE(html.find("prefers-color-scheme: dark"), std::string::npos);
  EXPECT_NE(html.find("Table view"), std::string::npos);
  EXPECT_NE(html.find("sim.step"), std::string::npos);
}

}  // namespace
