#include "workloads.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/drl_controller.hpp"
#include "core/evaluation.hpp"
#include "core/offline_trainer.hpp"
#include "core/sweep.hpp"
#include "fault/fault_model.hpp"
#include "obs/ledger.hpp"
#include "sched/baselines.hpp"
#include "sim/cohort.hpp"
#include "sim/experiment_config.hpp"
#include "sim/fleet_pricing.hpp"
#include "sim/simulator.hpp"
#include "spans.hpp"
#include "telemetry/telemetry.hpp"
#include "tensor/matrix.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace bench_e2e {

namespace {

using fedra::Controller;
using fedra::EpisodeStats;
using fedra::EvalSeries;
using fedra::ExperimentConfig;
using fedra::FlEnv;
using fedra::FlEnvConfig;
using fedra::FlSimulator;
using fedra::IterationResult;
using fedra::OfflineTrainer;
using fedra::PolicySpec;
using fedra::SimulatorBase;
using fedra::StepOptions;
using fedra::ThreadPool;

// ---------------------------------------------------------------------------
// Job sizes. Every job does a fixed amount of work, so its outputs are a pure
// function of the seed and its timings are comparable across commits; a run
// repeats jobs until its time is up.

constexpr std::size_t kEpisodeLength = 40;  // as the figure benches train

struct DrlSizes {
  std::size_t episodes;         // Algorithm 1 episodes per job
  std::size_t eval_iterations;  // rounds per controller in the evaluation
  std::size_t sweep_seeds;      // scenario seeds of the pooled baseline sweep
};
constexpr DrlSizes kTestbedSizes{300, 400, 0};
constexpr DrlSizes kScaleSizes{40, 100, 3};
// A run's seed expands into this many scenarios (traces, fleet, agent
// seed); jobs cycle through them. Per-scenario work and agent quality vary
// with the seed, so a run reports over the whole set, not one draw.
constexpr std::size_t kScenarios = 5;

constexpr std::size_t kFleetDevices = 1'000'000;
constexpr std::size_t kFleetCohort = kFleetDevices / 10;
constexpr std::size_t kFleetRoundsPerJob = 10;
constexpr std::size_t kFleetSetups = 7;
// Fixed sample window for the fleet tails, so the tail percentile does not
// drift with machine speed (100 rounds -> p90).
constexpr std::size_t kFleetTailWindow = 100;

// ---------------------------------------------------------------------------
// Operation tally and named checks.

class Tally {
 public:
  void ops(std::uint64_t n) { attempted_ += n; }
  void check(const std::string& name, bool ok, std::uint64_t ops_on_failure) {
    auto it = std::find_if(checks_.begin(), checks_.end(),
                           [&](const Check& c) { return c.name == name; });
    if (it == checks_.end()) {
      checks_.push_back({name, true});
      it = checks_.end() - 1;
    }
    if (ok) return;
    it->ok = false;
    failed_ += ops_on_failure;
    std::fprintf(stderr, "bench_e2e: check failed: %s (%llu operations)\n",
                 name.c_str(),
                 static_cast<unsigned long long>(ops_on_failure));
  }
  void finish(Result& out) const {
    out.checks = checks_;
    out.attempted = attempted_;
    out.failed = std::min(failed_, attempted_);
  }

 private:
  std::vector<Check> checks_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

// ---------------------------------------------------------------------------
// Small helpers.

void append_bits(std::string& out, double v) {
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  out.append(buf, res.ptr);
  out += ',';
}

// Timings are taken from the fast end of the jobs, not their median: on a
// shared VM a fixed loop runs up to 1.6x slower in episodes lasting
// seconds, which a median over jobs absorbs only when they cover less than
// half the run (README.md, "Steadiness").

/// Lower quartile (nearest rank) of per-job times.
double fast_quartile(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return nearest_rank(v, 2500);
}

/// Work per second over the scenario set: the set's total work over the
/// sum of each scenario's fastest job time (job j ran scenario
/// j % kScenarios).
double scenario_rate(const std::vector<double>& amounts,
                     const std::vector<double>& seconds) {
  double work = 0.0;
  double time = 0.0;
  for (std::size_t k = 0; k < kScenarios && k < seconds.size(); ++k) {
    double fastest = seconds[k];
    for (std::size_t j = k; j < seconds.size(); j += kScenarios) {
      fastest = std::min(fastest, seconds[j]);
    }
    work += amounts[k];
    time += fastest;
  }
  return time > 0.0 ? work / time : 0.0;
}

std::string tail_detail(const Tail& t) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "p%g of %zu samples", t.percentile,
                t.samples);
  return buf;
}

/// Reads one "<key>: <n> ..." line of /proc/self/status (0 if absent).
double proc_status(const char* key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::string prefix = std::string(key) + ":";
  while (std::getline(in, line)) {
    if (line.rfind(prefix, 0) == 0) {
      return std::atof(line.c_str() + prefix.size());
    }
  }
  return 0.0;
}

double peak_rss_mb() { return proc_status("VmHWM") / 1024.0; }

std::size_t process_threads() {
  return static_cast<std::size_t>(proc_status("Threads"));
}

struct PoolCounters {
  std::uint64_t steals = 0;
  std::uint64_t idle_wakeups = 0;
  std::vector<std::uint64_t> tasks;

  static PoolCounters read(const ThreadPool& pool) {
    PoolCounters c;
    c.steals = pool.steal_count();
    c.idle_wakeups = pool.idle_wakeups();
    for (std::size_t i = 0; i < pool.size(); ++i) {
      c.tasks.push_back(pool.worker_tasks(i));
    }
    return c;
  }
  PoolCounters minus(const PoolCounters& before) const {
    PoolCounters d;
    d.steals = steals - before.steals;
    d.idle_wakeups = idle_wakeups - before.idle_wakeups;
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      d.tasks.push_back(tasks[i] - before.tasks[i]);
    }
    return d;
  }
  void add(const PoolCounters& d) {
    steals += d.steals;
    idle_wakeups += d.idle_wakeups;
    tasks.resize(std::max(tasks.size(), d.tasks.size()), 0);
    for (std::size_t i = 0; i < d.tasks.size(); ++i) tasks[i] += d.tasks[i];
  }
};

// ---------------------------------------------------------------------------
// Decorators: the benchmark times layers from outside by wrapping the
// objects the library calls through its public virtual interfaces.

/// Controller decorator: a `sched.decide.<policy>` span around decide().
class TimedController final : public Controller {
 public:
  explicit TimedController(std::unique_ptr<Controller> inner)
      : inner_(std::move(inner)),
        span_name_(Tracer::intern("sched.decide." + inner_->name())) {}

  std::vector<double> decide(const SimulatorBase& sim) override {
    Span span(span_name_);
    return inner_->decide(sim);
  }
  void observe(const IterationResult& result) override {
    inner_->observe(result);
  }
  std::string name() const override { return inner_->name(); }

 private:
  std::unique_ptr<Controller> inner_;
  const char* span_name_;
};

PolicySpec timed(PolicySpec spec) {
  auto make = std::move(spec.make);
  spec.make = [make](const SimulatorBase& sim) -> std::unique_ptr<Controller> {
    return std::make_unique<TimedController>(make(sim));
  };
  return spec;
}

/// Simulator decorator for the serial evaluation: a `sim.step` span around
/// every round, and the round's wall time appended to `step_us`.
/// run_controller copies its simulator, so the copy keeps the pointer.
class TimedSim : public FlSimulator {
 public:
  TimedSim(const FlSimulator& sim, std::vector<double>* step_us)
      : FlSimulator(sim), step_us_(step_us) {}

  IterationResult step(const std::vector<double>& freqs,
                       const StepOptions& options) override {
    Span span("sim.step");
    const double t0 = now_us();
    IterationResult r = FlSimulator::step(freqs, options);
    if (step_us_ != nullptr) step_us_->push_back(now_us() - t0);
    return r;
  }

 private:
  std::vector<double>* step_us_;
};

// ---------------------------------------------------------------------------
// testbed and scale: Algorithm 1 training, then evaluation.

struct DrlScenario {
  ExperimentConfig cfg;
  FlEnvConfig env_cfg;
  DrlSizes sizes;
  bool ledger = false;
  std::uint64_t seed = 0;
};

DrlScenario make_drl_scenario(const std::string& workload,
                              std::uint64_t seed) {
  DrlScenario sc;
  const bool testbed = workload == "testbed";
  sc.cfg = testbed ? fedra::testbed_config() : fedra::scale_config();
  sc.cfg.trace_samples = 2000;
  sc.cfg.seed = seed;
  sc.env_cfg.slot_seconds = sc.cfg.slot_seconds;
  sc.env_cfg.history_slots = sc.cfg.history_slots;
  sc.env_cfg.episode_length = kEpisodeLength;
  sc.sizes = testbed ? kTestbedSizes : kScaleSizes;
  sc.ledger = testbed;
  sc.seed = seed;
  return sc;
}

/// The four model-based baselines, fresh per arm (controllers are stateful).
std::vector<PolicySpec> baseline_specs(std::uint64_t seed) {
  std::vector<PolicySpec> specs;
  specs.push_back({"heuristic", [](const SimulatorBase& sim) {
                     return std::make_unique<fedra::HeuristicController>(sim);
                   }});
  specs.push_back({"static", [seed](const SimulatorBase& sim) {
                     fedra::Rng rng(seed + 3);
                     return std::make_unique<fedra::StaticController>(sim, 10,
                                                                      rng);
                   }});
  specs.push_back({"fullspeed", [](const SimulatorBase&) {
                     return std::make_unique<fedra::FullSpeedController>();
                   }});
  specs.push_back({"oracle", [](const SimulatorBase&) {
                     return std::make_unique<fedra::OracleController>();
                   }});
  for (PolicySpec& s : specs) s = timed(std::move(s));
  return specs;
}

struct DrlSetup {
  std::unique_ptr<OfflineTrainer> trainer;
  double bandwidth_ref = 0.0;
  std::unique_ptr<FlSimulator> eval_sim;
};

DrlSetup setup_drl(const DrlScenario& sc) {
  DrlSetup s;
  FlEnv env(fedra::build_simulator(sc.cfg), sc.env_cfg);
  s.bandwidth_ref = env.bandwidth_ref();
  s.trainer = std::make_unique<OfflineTrainer>(
      std::move(env), fedra::recommended_trainer_config(sc.sizes.episodes),
      sc.seed);
  s.eval_sim = std::make_unique<FlSimulator>(fedra::build_simulator(sc.cfg));
  return s;
}

/// OfflineTrainer::run_episode (single-env path) re-driven call for call
/// through the trainer's own objects, with a span around each layer call.
/// Any divergence from the library shows as a bitwise EpisodeStats
/// mismatch, which the traced run checks.
EpisodeStats traced_episode(OfflineTrainer& trainer, std::size_t episode,
                            double* steady_update_alloc_bytes,
                            bool* first_update_done) {
  Span root("core.trainer");
  FlEnv& env = trainer.env();
  fedra::PpoAgent& agent = trainer.agent();
  fedra::RolloutBuffer& buffer = trainer.rollout_buffer();
  fedra::Rng& rng = trainer.rng();
  fedra::UpdateStats last_update = trainer.last_update();
  bool has_update = trainer.has_update();

  EpisodeStats stats;
  stats.episode = episode;
  std::vector<double> state;
  {
    Span s("env.reset");
    state = env.reset(rng);
  }
  double cost_acc = 0.0;
  double reward_acc = 0.0;
  double time_acc = 0.0;
  double energy_acc = 0.0;
  std::size_t steps = 0;
  double carried_value = 0.0;
  bool value_carried = false;

  bool done = false;
  while (!done) {
    fedra::PolicySample sample;
    {
      Span s("rl.act");
      sample = agent.act(state, rng);
    }
    double value = carried_value;
    if (!value_carried) {
      Span s("rl.value");
      value = agent.value(state);
    }
    fedra::StepResult step;
    {
      Span s("env.step");
      step = env.step(sample.action);
    }
    fedra::Transition t;
    t.state = state;
    t.next_state = step.state;
    t.action_u = sample.action_u;
    t.log_prob = sample.log_prob;
    t.reward = step.reward;
    t.value = value;
    {
      Span s("rl.value");
      t.next_value = agent.value(step.state);
    }
    t.episode_end = step.done;
    carried_value = t.next_value;
    value_carried = true;
    {
      Span s("rl.buffer");
      buffer.push(std::move(t));
    }

    cost_acc += step.info.cost;
    reward_acc += step.reward;
    time_acc += step.info.iteration_time;
    energy_acc += step.info.total_energy;
    ++steps;

    if (buffer.full()) {
      {
        Span s("rl.update");
        const auto before = fedra::tensor_alloc_stats();
        last_update = agent.update(buffer, rng);
        const auto after = fedra::tensor_alloc_stats();
        // The first update of a trainer sizes its workspaces; later ones
        // are the steady state, which should allocate nothing.
        if (*first_update_done) {
          *steady_update_alloc_bytes +=
              static_cast<double>(after.bytes - before.bytes);
        }
        *first_update_done = true;
      }
      has_update = true;
      {
        Span s("rl.buffer");
        buffer.clear();
      }
      value_carried = false;
    }
    state = std::move(step.state);
    done = step.done;
  }

  const double inv = steps > 0 ? 1.0 / static_cast<double>(steps) : 0.0;
  stats.avg_cost = cost_acc * inv;
  stats.avg_reward = reward_acc * inv;
  stats.avg_time = time_acc * inv;
  stats.avg_energy = energy_acc * inv;
  if (has_update) {
    stats.total_loss = last_update.total_loss;
    stats.policy_loss = last_update.policy_loss;
    stats.value_loss = last_update.value_loss;
    stats.entropy = last_update.entropy;
  }
  trainer.restore_update_stats(last_update, has_update);
  return stats;
}

std::string episode_digest(const std::vector<EpisodeStats>& episodes) {
  std::string out;
  for (const EpisodeStats& e : episodes) {
    for (double v : {e.avg_cost, e.avg_reward, e.avg_time, e.avg_energy,
                     e.total_loss, e.policy_loss, e.value_loss, e.entropy}) {
      append_bits(out, v);
    }
  }
  return out;
}

/// The bench_sweep aggregate fingerprint: every double of the aggregate in
/// shortest round-trip form, so string equality is bitwise equality.
std::string sweep_fingerprint(const fedra::MultiSeedResult& r) {
  std::string out;
  for (const auto& p : r.policies) {
    out += p.policy + ':';
    for (const fedra::MetricCI* ci : {&p.cost, &p.time, &p.compute_energy}) {
      append_bits(out, ci->mean);
      append_bits(out, ci->stddev);
      append_bits(out, ci->ci95);
      out += std::to_string(ci->samples) + '|';
    }
    append_bits(out, p.win_rate);
  }
  return out;
}

struct DrlJob {
  bool traced = false;
  double setup_s = 0.0;
  double train_s = 0.0;
  double eval_s = 0.0;
  double steps = 0.0;
  double rounds = 0.0;
  std::vector<double> decide_us;  // DRL arm
  std::vector<double> round_us;   // DRL arm: decide + step
  double drl_cost = 0.0;
  double heuristic_cost = 0.0;
  std::string episodes_digest;
  std::string eval_digest;
  std::string sweep_fp;
  // Per-layer counters.
  double update_alloc_bytes = 0.0;
  double ledger_records = 0.0;
  double ledger_dropped = 0.0;
  double ledger_bytes = 0.0;
  double sweep_wall_us = 0.0;
  double sweep_arm_busy_us = 0.0;
  double sweep_tensor_allocs = 0.0;
  double sweep_tensor_bytes = 0.0;
  PoolCounters pool;
  std::size_t extra_threads = 0;
};

void check_costs(Tally& tally, const char* what,
                 const std::vector<double>& costs) {
  std::uint64_t bad = 0;
  for (double c : costs) bad += std::isfinite(c) ? 0 : 1;
  tally.check(std::string("finite_costs.") + what, bad == 0, bad);
}

fedra::SweepGrid make_sweep_grid(const DrlScenario& sc) {
  fedra::SweepGrid grid;
  grid.configs = {sc.cfg};
  grid.policies = baseline_specs(sc.seed);
  grid.num_seeds = sc.sizes.sweep_seeds;
  grid.iterations = sc.sizes.eval_iterations;
  return grid;
}

/// Algorithm 1 for the scenario's episode count: the library's
/// run_episode untraced, the span-instrumented mirror traced.
void train_phase(const DrlScenario& sc, OfflineTrainer& trainer, bool traced,
                 DrlJob& job, Tally& tally) {
  std::vector<EpisodeStats> episodes;
  episodes.reserve(sc.sizes.episodes);
  const double t0 = now_us();
  bool first_update_done = false;
  for (std::size_t e = 0; e < sc.sizes.episodes; ++e) {
    episodes.push_back(traced ? traced_episode(trainer, e,
                                               &job.update_alloc_bytes,
                                               &first_update_done)
                              : trainer.run_episode(e));
  }
  job.train_s = (now_us() - t0) * 1e-6;
  job.steps = static_cast<double>(sc.sizes.episodes * kEpisodeLength);
  tally.ops(sc.sizes.episodes * kEpisodeLength);
  std::uint64_t bad = 0;
  for (const EpisodeStats& e : episodes) {
    const bool ok = std::isfinite(e.avg_cost) && std::isfinite(e.total_loss);
    bad += ok ? 0 : kEpisodeLength;
  }
  tally.check("finite_costs.train", bad == 0, bad);
  job.episodes_digest = episode_digest(episodes);
}

/// testbed: the serial five-controller roster with the run ledger on.
/// scale: the DRL arm serially, then the baselines x seeds on the pool.
void eval_phase(const DrlScenario& sc, DrlSetup& setup, ThreadPool& pool,
                const RunOptions& opts, DrlJob& job, Tally& tally,
                std::vector<EvalSeries>& roster,
                std::vector<fedra::SweepArmResult>& sweep,
                std::vector<double>& drl_step_us) {
  const double t0 = now_us();
  PolicySpec drl{"drl", [&](const SimulatorBase&) {
                   return std::make_unique<fedra::DrlController>(
                       setup.trainer->agent(), sc.env_cfg,
                       setup.bandwidth_ref);
                 }};
  std::vector<PolicySpec> serial{timed(std::move(drl))};
  if (sc.sizes.sweep_seeds == 0) {
    for (PolicySpec& s : baseline_specs(sc.seed)) {
      serial.push_back(std::move(s));
    }
  }

  std::string ledger_path;
  if (sc.ledger) {
    Span s("obs.ledger");
    ledger_path = opts.scratch_dir + "/ledger-" + std::to_string(sc.seed) +
                  ".jsonl";
    // As --ledger-out does: in-memory telemetry gates the ledger.
    fedra::telemetry::Telemetry::enable({});
    fedra::obs::LedgerConfig lcfg;
    lcfg.path = ledger_path;
    lcfg.run_id = "bench_e2e.testbed";
    lcfg.lambda = sc.cfg.cost.lambda;
    tally.check("ledger_opens", fedra::obs::RunLedger::enable(lcfg), 0);
  }
  job.extra_threads = process_threads() - 1;

  for (std::size_t i = 0; i < serial.size(); ++i) {
    Span s("core.eval");
    TimedSim sim(*setup.eval_sim, i == 0 ? &drl_step_us : nullptr);
    auto controller = serial[i].make(sim);
    roster.push_back(
        fedra::run_controller(sim, *controller, sc.sizes.eval_iterations));
  }

  if (sc.ledger) {
    Span s("obs.ledger");
    fedra::obs::RunLedger::flush();
    job.ledger_records =
        static_cast<double>(fedra::obs::RunLedger::records_written());
    job.ledger_dropped =
        static_cast<double>(fedra::obs::RunLedger::dropped_records());
    fedra::obs::RunLedger::disable();
    fedra::telemetry::Telemetry::disable();
    fedra::telemetry::Telemetry::reset();
  }

  if (sc.sizes.sweep_seeds > 0) {
    const fedra::SweepEngine engine(make_sweep_grid(sc));
    const auto alloc0 = fedra::tensor_alloc_stats();
    const PoolCounters pool0 = PoolCounters::read(pool);
    {
      Span s("core.sweep");
      const double ts = now_us();
      sweep = engine.run(&pool);
      job.sweep_wall_us = now_us() - ts;
    }
    const auto alloc1 = fedra::tensor_alloc_stats();
    job.pool = PoolCounters::read(pool).minus(pool0);
    job.sweep_tensor_allocs =
        static_cast<double>(alloc1.allocs - alloc0.allocs);
    job.sweep_tensor_bytes = static_cast<double>(alloc1.bytes - alloc0.bytes);
    for (const auto& arm : sweep) job.sweep_arm_busy_us += arm.wall_us;
    job.sweep_fp =
        sweep_fingerprint(fedra::reduce_multi_seed(engine.grid(), sweep));
  }
  job.eval_s = (now_us() - t0) * 1e-6;

  if (sc.ledger) {
    std::error_code ec;
    job.ledger_bytes =
        static_cast<double>(std::filesystem::file_size(ledger_path, ec));
    std::filesystem::remove(ledger_path, ec);
    tally.check("ledger_no_drops", job.ledger_dropped == 0.0,
                static_cast<std::uint64_t>(job.ledger_dropped));
  }
}

DrlJob run_drl_job(const DrlScenario& sc, ThreadPool& pool, bool traced,
                   const RunOptions& opts, Tally& tally) {
  DrlJob job;
  job.traced = traced;
  const double t_setup = now_us();
  DrlSetup setup = setup_drl(sc);
  job.setup_s = (now_us() - t_setup) * 1e-6;

  std::vector<EvalSeries> roster;
  std::vector<fedra::SweepArmResult> sweep;
  std::vector<double> drl_step_us;
  Tracer::set_on(traced);
  {
    Span root("bench.job");
    train_phase(sc, *setup.trainer, traced, job, tally);
    eval_phase(sc, setup, pool, opts, job, tally, roster, sweep, drl_step_us);
  }
  Tracer::set_on(false);

  // Output checks on the evaluation.
  const std::size_t iters = sc.sizes.eval_iterations;
  const std::uint64_t rounds = (roster.size() + sweep.size()) * iters;
  job.rounds = static_cast<double>(rounds);
  tally.ops(rounds);
  for (const EvalSeries& s : roster) check_costs(tally, "eval", s.costs);
  for (const auto& arm : sweep) check_costs(tally, "eval", arm.series.costs);

  const EvalSeries& drl_series = roster[0];
  job.decide_us = drl_series.decide_us;
  job.round_us.resize(drl_step_us.size());
  for (std::size_t k = 0; k < drl_step_us.size(); ++k) {
    job.round_us[k] = drl_series.decide_us[k] + drl_step_us[k];
  }
  job.drl_cost = drl_series.avg_cost();

  // The sweep's seed-0 scenario is the DRL arm's simulator, so its
  // heuristic arm is DRL's reference. (No "oracle costs least" check: the
  // oracle is greedy per round, and over a trajectory a baseline can beat
  // it — README.md gives a seed where heuristic and fullspeed do.)
  job.heuristic_cost =
      sweep.empty() ? roster[1].avg_cost() : sweep[0].series.avg_cost();

  for (const EvalSeries& s : roster) append_bits(job.eval_digest, s.avg_cost());
  job.eval_digest += job.sweep_fp;
  return job;
}

/// In a traced run, jobs come in pairs on identical inputs, one traced and
/// one not, so each pair gives the tracing overhead. The order flips every
/// pair, so warm-up does not favour either side.
bool is_traced_job(bool trace_run, std::size_t j) {
  return trace_run && ((j % 2 == 1) != ((j / 2) % 2 == 1));
}

/// Untraced and traced jobs share this loop: jobs run back to back while
/// another one of the last one's length still fits in the run.
template <typename JobFn>
void run_jobs(int seconds, std::size_t min_jobs, JobFn&& job) {
  const double t_end = now_us() + seconds * 1e6;
  double last_us = 0.0;
  for (std::size_t j = 0; j < min_jobs || now_us() + last_us <= t_end; ++j) {
    const double t0 = now_us();
    job(j);
    last_us = now_us() - t0;
  }
}

void add_span_metrics(std::vector<Metric>& out,
                      const std::map<std::string, SpanStats>& stats,
                      const std::vector<std::string>& names, double jobs) {
  for (const std::string& name : names) {
    const auto it = stats.find(name);
    const SpanStats s = it != stats.end() ? it->second : SpanStats{};
    auto add = [&](const char* suffix, double value, const char* unit) {
      out.push_back({name + suffix, value, unit, s.calls, ""});
    };
    add(".calls", s.calls / jobs, "count");
    add(".busy_ms", s.busy_us / jobs / 1e3, "ms");
    add(".self_ms", s.self_us / jobs / 1e3, "ms");
    add(".p50_us", s.p50_us, "us");
  }
}

const std::vector<std::string>& span_names() {
  static const std::vector<std::string> names{
      "core.trainer",        "env.reset",
      "env.step",            "rl.act",
      "rl.value",            "rl.update",
      "rl.buffer",           "core.eval",
      "sched.decide.drl",    "sched.decide.heuristic",
      "sched.decide.static", "sched.decide.fullspeed",
      "sched.decide.oracle", "sim.step",
      "obs.ledger",          "core.sweep",
      "sim.cohort"};
  return names;
}

/// Per-layer metrics the traced run reports, per traced job.
struct LayerCounters {
  double update_alloc_bytes = 0.0;
  double ledger_records = 0.0;
  double ledger_dropped = 0.0;
  double ledger_bytes = 0.0;
  double sweep_arm_busy_ms = 0.0;
  double sweep_efficiency = 0.0;
  PoolCounters pool;
  double tensor_allocs = 0.0;
  double tensor_alloc_bytes = 0.0;
  double price_compute_ms = 0.0;
  double upload_finish_times_ms = 0.0;
  double draw_range_ms = 0.0;
  double kernel_ratio = 0.0;
  double coverage = 0.0;
  double trace_overhead = 0.0;
};

std::vector<Metric> layer_metrics(const std::vector<SpanRecord>& spans,
                                  double traced_jobs, const LayerCounters& c) {
  std::vector<Metric> out;
  add_span_metrics(out, span_stats(spans), span_names(), traced_jobs);
  std::uint64_t task_min = 0;
  std::uint64_t task_max = 0;
  if (!c.pool.tasks.empty()) {
    task_min = *std::min_element(c.pool.tasks.begin(), c.pool.tasks.end());
    task_max = *std::max_element(c.pool.tasks.begin(), c.pool.tasks.end());
  }
  auto add = [&out](const char* name, double value, const char* unit) {
    out.push_back({name, value, unit, 0, ""});
  };
  // Counters are per traced job; probes and ratios are taken once.
  const double j = traced_jobs;
  add("rl.update.alloc_bytes", c.update_alloc_bytes / j, "B");
  add("obs.ledger.records", c.ledger_records / j, "count");
  add("obs.ledger.dropped", c.ledger_dropped / j, "count");
  add("obs.ledger.bytes", c.ledger_bytes / j, "B");
  add("core.sweep.arm_busy_ms", c.sweep_arm_busy_ms / j, "ms");
  add("core.sweep.efficiency", c.sweep_efficiency / j, "ratio");
  add("util.pool.steals", c.pool.steals / j, "count");
  add("util.pool.idle_wakeups", c.pool.idle_wakeups / j, "count");
  add("util.pool.worker_tasks.min", task_min / j, "count");
  add("util.pool.worker_tasks.max", task_max / j, "count");
  add("tensor.allocs", c.tensor_allocs / j, "count");
  add("tensor.alloc_bytes", c.tensor_alloc_bytes / j, "B");
  add("sim.price_compute.ms", c.price_compute_ms, "ms");
  add("trace.upload_finish_times.ms", c.upload_finish_times_ms, "ms");
  add("fault.draw_range.ms", c.draw_range_ms, "ms");
  add("sim.step.kernel_ratio", c.kernel_ratio, "ratio");
  add("coverage", c.coverage, "ratio");
  add("trace_overhead", c.trace_overhead, "ratio");
  return out;
}

Result run_drl_workload(const RunOptions& opts, ThreadPool& pool) {
  std::vector<DrlScenario> scenarios;
  for (std::size_t k = 0; k < kScenarios; ++k) {
    scenarios.push_back(
        make_drl_scenario(opts.workload, opts.seed * kScenarios + k));
  }
  const DrlScenario& sc = scenarios[0];
  Tally tally;
  std::vector<DrlJob> jobs;
  run_jobs(opts.seconds, opts.trace ? 2 : kScenarios, [&](std::size_t j) {
    const bool traced = is_traced_job(opts.trace, j);
    const std::size_t k = (opts.trace ? j / 2 : j) % kScenarios;
    jobs.push_back(run_drl_job(scenarios[k], pool, traced, opts, tally));
    // Same inputs, same work: a job must reproduce the earlier job of its
    // scenario bit for bit. Within a traced pair this is the check that
    // the traced loop matches OfflineTrainer::run_episode.
    const std::size_t back = opts.trace ? 1 : kScenarios;
    if (j < back || (opts.trace && j % 2 == 0)) return;
    const DrlJob& job = jobs[j];
    const DrlJob& ref = jobs[j - back];
    tally.check(opts.trace ? "traced_loop_equals_trainer"
                           : "jobs_repeat_bitwise",
                job.episodes_digest == ref.episodes_digest,
                static_cast<std::uint64_t>(job.steps));
    tally.check("eval_repeats_bitwise", job.eval_digest == ref.eval_digest,
                static_cast<std::uint64_t>(job.rounds));
  });

  // The serial reference for the pooled sweep, once, outside every timed
  // window: the aggregates must agree bit for bit.
  if (sc.sizes.sweep_seeds > 0) {
    const fedra::SweepEngine engine(make_sweep_grid(sc));
    const std::string serial_fp = sweep_fingerprint(
        fedra::reduce_multi_seed(engine.grid(), engine.run(nullptr)));
    tally.check("sweep_pooled_equals_serial", serial_fp == jobs[0].sweep_fp,
                engine.num_arms() * sc.sizes.eval_iterations);
  }

  Result out;
  out.fingerprint.extra_threads = jobs[0].extra_threads > pool.size()
                          ? jobs[0].extra_threads - pool.size()
                          : 0;
  if (!opts.trace) {
    std::vector<double> setup, steps, train_s, rounds, eval_s, d50, dtail,
        r50, rtail;
    double drl_cost = 0.0;
    double heuristic_cost = 0.0;
    Tail d_tail;
    Tail r_tail;
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      const DrlJob& job = jobs[j];
      setup.push_back(job.setup_s);
      steps.push_back(job.steps);
      train_s.push_back(job.train_s);
      rounds.push_back(job.rounds);
      eval_s.push_back(job.eval_s);
      d50.push_back(median_of(job.decide_us));
      r50.push_back(median_of(job.round_us) / 1e3);
      d_tail = tail_of(job.decide_us);
      r_tail = tail_of(job.round_us);
      dtail.push_back(d_tail.value);
      rtail.push_back(r_tail.value / 1e3);
      if (j < kScenarios) {
        drl_cost += job.drl_cost;
        heuristic_cost += job.heuristic_cost;
      }
    }
    const std::size_t n = jobs.size();
    const std::size_t per_job = jobs[0].decide_us.size();
    out.metrics = {
        {"setup_s", fast_quartile(setup), "s", n, "fast quartile of jobs"},
        {"train.steps_per_s", scenario_rate(steps, train_s), "1/s", n,
         "over the scenario set"},
        {"eval.rounds_per_s", scenario_rate(rounds, eval_s), "1/s", n,
         "over the scenario set"},
        {"cost_ratio", drl_cost / heuristic_cost, "ratio", kScenarios,
         "drl / heuristic average cost, summed over the scenarios"},
        {"peak_rss_mb", peak_rss_mb(), "MB", 1, "VmHWM"},
    };
    // Measured but not bounded: too unsteady across runs (README.md).
    out.info = {
        {"decide_us.p50", median_of(d50), "us", n * per_job,
         "median over jobs of the job p50"},
        {"round_ms.p50", median_of(r50), "ms", n * per_job,
         "median over jobs of the job p50"},
        {"decide_us.tail", median_of(dtail), "us", n * per_job,
         tail_detail(d_tail) + ", median over jobs"},
        {"round_ms.tail", median_of(rtail), "ms", n * per_job,
         tail_detail(r_tail) + ", median over jobs"},
    };
    tally.check("tail_defined", d_tail.ok && r_tail.ok, 0);
  } else {
    LayerCounters c;
    std::vector<double> plain_s;
    std::vector<double> traced_s;
    double traced_jobs = 0.0;
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      const DrlJob& job = jobs[j];
      (job.traced ? traced_s : plain_s).push_back(job.train_s + job.eval_s);
      if (!job.traced) continue;
      traced_jobs += 1.0;
      c.update_alloc_bytes += job.update_alloc_bytes;
      c.ledger_records += job.ledger_records;
      c.ledger_dropped += job.ledger_dropped;
      c.ledger_bytes += job.ledger_bytes;
      c.sweep_arm_busy_ms += job.sweep_arm_busy_us / 1e3;
      if (job.sweep_wall_us > 0.0) {
        c.sweep_efficiency +=
            job.sweep_arm_busy_us /
            (static_cast<double>(pool.size() + 1) * job.sweep_wall_us);
      }
      c.pool.add(job.pool);
      c.tensor_allocs += job.sweep_tensor_allocs;
      c.tensor_alloc_bytes += job.sweep_tensor_bytes;
    }
    const std::vector<SpanRecord> spans = Tracer::collect();
    c.coverage = coverage(spans, "bench.job");
    c.trace_overhead = median_of(traced_s) / median_of(plain_s);
    out.metrics = layer_metrics(spans, traced_jobs, c);
    tally.check("coverage_at_least_0.9", c.coverage >= 0.9, 0);
  }
  tally.finish(out);
  return out;
}

// ---------------------------------------------------------------------------
// fleet: 1M devices, a 10% cohort per round, README churn.

struct FleetSetup {
  std::unique_ptr<FlSimulator> sim;
  std::vector<double> freqs;  // fixed per-device plan
  fedra::fault::FaultModel faults;
};

FleetSetup setup_fleet(std::uint64_t seed) {
  FleetSetup f;
  ExperimentConfig cfg = fedra::scale_config();
  cfg.num_devices = kFleetDevices;
  cfg.seed = seed;
  f.sim = std::make_unique<FlSimulator>(fedra::build_fleet_simulator(cfg));
  const auto max_freq = f.sim->fleet().max_freq_hz();
  fedra::Rng rng(seed ^ 0x5eedf1ee7ULL);
  f.freqs.resize(kFleetDevices);
  for (std::size_t i = 0; i < kFleetDevices; ++i) {
    f.freqs[i] = rng.uniform(0.4, 1.0) * max_freq[i];
  }
  // The churn mix README.md uses for fedra::fault.
  fedra::fault::FaultConfig churn;
  churn.dropout_prob = 0.05;
  churn.straggler_prob = 0.15;
  churn.crash_prob = 0.02;
  churn.upload_failure_prob = 0.1;
  f.faults = fedra::fault::FaultModel(churn, seed);
  return f;
}

struct RoundTotals {
  double iteration_time = 0.0;
  double total_energy = 0.0;
  double total_compute_energy = 0.0;
  double cost = 0.0;
  std::size_t num_scheduled = 0;
  std::size_t num_completed = 0;

  bool operator==(const RoundTotals&) const = default;
};

RoundTotals totals_of(const IterationResult& r) {
  return {r.iteration_time, r.total_energy, r.total_compute_energy,
          r.cost,           r.num_scheduled, r.num_completed};
}

/// The bench_fleet scalar oracle, extended to a participation mask:
/// per-device math through the *_reference kernel and one trace solve per
/// device, accumulated in the engine's fixed block structure.
RoundTotals oracle_round(const FlSimulator& sim,
                         const std::vector<double>& freqs,
                         const std::vector<bool>& mask, double start) {
  const fedra::FleetView fleet = sim.fleet();
  const fedra::CostParams& params = sim.params();
  const std::size_t n = sim.num_devices();
  constexpr std::size_t kBlock = FlSimulator::kPricingBlock;
  std::vector<double> freq(kBlock), tcmp(kBlock), ecmp(kBlock);
  RoundTotals t;
  double makespan = 0.0;
  for (std::size_t begin = 0; begin < n; begin += kBlock) {
    const std::size_t bn = std::min(n, begin + kBlock) - begin;
    fedra::fleet::price_compute_reference(
        bn, params.tau, FlSimulator::kMinFreqFraction,
        fleet.cycles_per_bit().data() + begin,
        fleet.dataset_bits().data() + begin,
        fleet.capacitance().data() + begin,
        fleet.max_freq_hz().data() + begin, freqs.data() + begin, freq.data(),
        tcmp.data(), ecmp.data());
    double energy = 0.0;
    double compute = 0.0;
    double block_makespan = 0.0;
    for (std::size_t k = 0; k < bn; ++k) {
      const std::size_t i = begin + k;
      if (!mask[i]) continue;
      ++t.num_scheduled;
      ++t.num_completed;
      const double upload_start = start + tcmp[k];
      const double comm = sim.trace(i).upload_finish_time(
                              upload_start, params.model_bytes) -
                          upload_start;
      energy += ecmp[k] + fleet.tx_power_w(i) * comm;
      compute += ecmp[k];
      block_makespan = std::max(block_makespan, tcmp[k] + comm);
    }
    t.total_energy += energy;
    t.total_compute_energy += compute;
    makespan = std::max(makespan, block_makespan);
  }
  t.iteration_time = makespan;
  t.cost = fedra::iteration_cost(makespan, t.total_energy, params);
  return t;
}

struct FleetJob {
  bool traced = false;
  double wall_s = 0.0;
  double completed = 0.0;
  std::vector<double> round_ms;
  std::vector<double> cohort_us;
  std::vector<double> step_ms;
  std::vector<double> costs;
  std::vector<double> starts;
  std::string digest;
  PoolCounters pool;
};

FleetJob run_fleet_job(FleetSetup& f, ThreadPool& pool, std::uint64_t seed,
                       bool traced, Tally& tally) {
  FleetJob job;
  job.traced = traced;
  f.sim->reset(0.0);
  f.faults.reset();
  StepOptions opts;
  opts.fault_model = &f.faults;
  opts.outcomes = fedra::OutcomeLayout::kSummary;
  opts.pool = &pool;
  std::vector<bool> mask;

  const PoolCounters pool0 = PoolCounters::read(pool);
  Tracer::set_on(traced);
  const double t_job = now_us();
  {
    Span root("bench.job");
    for (std::size_t r = 0; r < kFleetRoundsPerJob; ++r) {
      const double t0 = now_us();
      {
        Span s("sim.cohort");
        mask = fedra::sample_cohort(kFleetDevices, kFleetCohort, seed, r)
                   .mask(kFleetDevices);
      }
      const double t1 = now_us();
      opts.participating = &mask;
      IterationResult res;
      {
        Span s("sim.step");
        res = f.sim->step(f.freqs, opts);
      }
      const double t2 = now_us();
      job.cohort_us.push_back(t1 - t0);
      job.step_ms.push_back((t2 - t1) / 1e3);
      job.round_ms.push_back((t2 - t0) / 1e3);

      const std::size_t resolved = res.num_completed + res.num_crashes +
                                   res.num_dropouts + res.num_timeouts +
                                   res.num_upload_failures;
      const bool ok = std::isfinite(res.cost) &&
                      res.num_scheduled == kFleetCohort &&
                      resolved == res.num_scheduled;
      tally.check("fleet_round_consistent", ok, 1);
      job.completed += static_cast<double>(res.num_completed);
      job.costs.push_back(res.cost);
      job.starts.push_back(res.start_time);
      append_bits(job.digest, res.cost);
    }
  }
  job.wall_s = (now_us() - t_job) * 1e-6;
  Tracer::set_on(false);
  job.pool = PoolCounters::read(pool).minus(pool0);
  tally.ops(kFleetRoundsPerJob);
  return job;
}

/// One-thread kernel probes on round 0's inputs: how long the round's
/// three kernels take when run back to back on the calling thread.
void fleet_probes(const FleetSetup& f, std::uint64_t seed, LayerCounters& c) {
  const FlSimulator& sim = *f.sim;
  const fedra::FleetView fleet = sim.fleet();
  const std::size_t n = sim.num_devices();
  const std::vector<bool> mask =
      fedra::sample_cohort(n, kFleetCohort, seed, 0).mask(n);
  std::vector<double> freq(n), tcmp(n), ecmp(n);
  std::vector<std::size_t> idx;
  std::vector<double> starts;
  std::vector<double> ends;
  fedra::fault::RoundFaults round;
  round.devices.resize(n);
  const std::vector<bool> healthy;

  std::vector<double> price, upload, draw;
  for (int rep = 0; rep < 3; ++rep) {
    double t0 = now_us();
    fedra::fleet::price_compute(
        n, sim.params().tau, FlSimulator::kMinFreqFraction,
        fleet.cycles_per_bit().data(), fleet.dataset_bits().data(),
        fleet.capacitance().data(), fleet.max_freq_hz().data(),
        f.freqs.data(), freq.data(), tcmp.data(), ecmp.data());
    price.push_back((now_us() - t0) / 1e3);

    idx.clear();
    starts.clear();
    for (std::size_t i = 0; i < n; ++i) {
      if (!mask[i]) continue;
      idx.push_back(i);
      starts.push_back(tcmp[i]);
    }
    ends.resize(idx.size());
    t0 = now_us();
    sim.trace_table().upload_finish_times(idx.data(), idx.size(),
                                          starts.data(),
                                          sim.params().model_bytes,
                                          ends.data());
    upload.push_back((now_us() - t0) / 1e3);

    t0 = now_us();
    f.faults.draw_range(0, 0, n, healthy, &round, nullptr);
    draw.push_back((now_us() - t0) / 1e3);
  }
  c.price_compute_ms = median_of(price);
  c.upload_finish_times_ms = median_of(upload);
  c.draw_range_ms = median_of(draw);
}

Result run_fleet_workload(const RunOptions& opts, ThreadPool& pool) {
  Tally tally;
  // Set up several times; the fast quartile is the reported set-up time
  // and the last set-up is the one measured.
  std::vector<double> setup_s;
  FleetSetup f;
  for (std::size_t i = 0; i < kFleetSetups; ++i) {
    f = FleetSetup{};
    const double t0 = now_us();
    f = setup_fleet(opts.seed);
    setup_s.push_back((now_us() - t0) * 1e-6);
  }

  std::vector<FleetJob> jobs;
  run_jobs(opts.seconds, opts.trace ? 2 : 1, [&](std::size_t j) {
    const bool traced = is_traced_job(opts.trace, j);
    jobs.push_back(run_fleet_job(f, pool, opts.seed, traced, tally));
    if (j > 0) {
      tally.check("jobs_repeat_bitwise", jobs[j].digest == jobs[0].digest,
                  kFleetRoundsPerJob);
    }
  });

  // Output check: round 0 again, fault-free, priced by the engine on the
  // pool and by the scalar oracle — the totals must agree bit for bit.
  f.sim->reset(0.0);
  f.faults.reset();
  const std::vector<bool> mask0 =
      fedra::sample_cohort(kFleetDevices, kFleetCohort, opts.seed, 0)
          .mask(kFleetDevices);
  StepOptions preview;
  preview.participating = &mask0;
  preview.dry_run_at = 0.0;
  preview.outcomes = fedra::OutcomeLayout::kSummary;
  preview.pool = &pool;
  const IterationResult clean = f.sim->preview(f.freqs, preview);
  const RoundTotals oracle = oracle_round(*f.sim, f.freqs, mask0, 0.0);
  tally.check("fleet_round_equals_scalar_oracle", totals_of(clean) == oracle,
              1);
  // The cost of churn: each round of the first job against the same
  // round (start time, cohort) priced without faults.
  std::vector<double> churn_ratio;
  StepOptions calm = preview;
  for (std::size_t r = 0; r < kFleetRoundsPerJob; ++r) {
    const std::vector<bool> mask =
        fedra::sample_cohort(kFleetDevices, kFleetCohort, opts.seed, r)
            .mask(kFleetDevices);
    calm.participating = &mask;
    calm.dry_run_at = jobs[0].starts[r];
    churn_ratio.push_back(jobs[0].costs[r] /
                          f.sim->preview(f.freqs, calm).cost);
  }

  Result out;
  out.fingerprint.extra_threads = process_threads() - 1 - pool.size();
  if (!opts.trace) {
    std::vector<double> wall, round_ms, cohort_us;
    std::vector<double> round_window, cohort_window;
    for (const FleetJob& job : jobs) {
      wall.push_back(job.wall_s);
      round_ms.push_back(median_of(job.round_ms));
      cohort_us.push_back(median_of(job.cohort_us));
      for (std::size_t k = 0; k < job.round_ms.size(); ++k) {
        if (round_window.size() < kFleetTailWindow) {
          round_window.push_back(job.round_ms[k]);
          cohort_window.push_back(job.cohort_us[k]);
        }
      }
    }
    const Tail r_tail = tail_of(round_window);
    const Tail c_tail = tail_of(cohort_window);
    const std::size_t n = jobs.size();
    const double job_s = fast_quartile(wall);
    const std::size_t rounds = n * kFleetRoundsPerJob;
    out.metrics = {
        {"setup_s", fast_quartile(setup_s), "s", setup_s.size(),
         "fast quartile of set-ups"},
        {"train.steps_per_s", jobs[0].completed / job_s, "1/s", n,
         "device updates delivered per second, fast quartile of jobs"},
        {"eval.rounds_per_s", kFleetRoundsPerJob / job_s, "1/s", n,
         "fleet rounds per second, fast quartile of jobs"},
        {"cost_ratio", median_of(churn_ratio), "ratio", kFleetRoundsPerJob,
         "round cost with churn / without, median over a job's rounds"},
        {"peak_rss_mb", peak_rss_mb(), "MB", 1, "VmHWM"},
    };
    out.info = {
        {"decide_us.p50", median_of(cohort_us), "us", rounds,
         "cohort selection, median over jobs of the job p50"},
        {"round_ms.p50", median_of(round_ms), "ms", rounds,
         "median over jobs of the job p50"},
        {"decide_us.tail", c_tail.value, "us", c_tail.samples,
         tail_detail(c_tail)},
        {"round_ms.tail", r_tail.value, "ms", r_tail.samples,
         tail_detail(r_tail)},
    };
    tally.check("tail_defined", r_tail.ok && c_tail.ok, 0);
  } else {
    LayerCounters c;
    std::vector<double> plain_s;
    std::vector<double> traced_s;
    std::vector<double> step_ms;
    double traced_jobs = 0.0;
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      (jobs[j].traced ? traced_s : plain_s).push_back(jobs[j].wall_s);
      if (!jobs[j].traced) continue;
      traced_jobs += 1.0;
      c.pool.add(jobs[j].pool);
      step_ms.insert(step_ms.end(), jobs[j].step_ms.begin(),
                     jobs[j].step_ms.end());
    }
    const std::vector<SpanRecord> spans = Tracer::collect();
    c.coverage = coverage(spans, "bench.job");
    c.trace_overhead = median_of(traced_s) / median_of(plain_s);
    fleet_probes(f, opts.seed, c);
    c.kernel_ratio = median_of(step_ms) /
                     (c.price_compute_ms + c.upload_finish_times_ms +
                      c.draw_range_ms);
    out.metrics = layer_metrics(spans, traced_jobs, c);
    tally.check("coverage_at_least_0.9", c.coverage >= 0.9, 0);
  }
  tally.finish(out);
  return out;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names{"testbed", "scale", "fleet"};
  return names;
}

Result run_workload(const RunOptions& opts, ThreadPool& pool) {
  if (opts.workload == "fleet") return run_fleet_workload(opts, pool);
  return run_drl_workload(opts, pool);
}

}  // namespace bench_e2e
