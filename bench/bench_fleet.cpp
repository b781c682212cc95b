// Fleet-scale pricing curve (population-scale simulator acceptance gauge):
// prices one full synchronized round at 50 / 1k / 100k / 1M devices
// through the vectorized, sharded engine and times it against the scalar
// per-device oracle.
//
// For every fleet size the engine result must be BIT-IDENTICAL to the
// oracle (same fixed-block accumulation the engine uses, per-device math
// through the *_reference scalar kernels) at every pool size {1, 2, 8} —
// any mismatch sets "pricing_exact": false and fails the run via the exit
// code, so the `perf` ctest label enforces the tentpole contract, not
// just the timings. A churn row then steps a 1M-device fleet with a 10%
// cohort under the README churn mix for three rounds per pool size: the
// round drawn from the fault model inside the pricing blocks (word-wise
// crash chain, full faults for members only) must equal, bitwise, the
// round priced from a twin model's advance() assignment, and the two
// crash chains must agree ("churn_exact"). Timings are reported in
// microseconds and gate nothing (machine noise must not gate
// correctness).
//
// Flags: --smoke (1 rep — the `perf` ctest label runs this),
//        --reps N (default 5), --out PATH (default BENCH_fleet.json).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "fault/fault_model.hpp"
#include "sim/cohort.hpp"
#include "sim/fleet_pricing.hpp"
#include "sim/fleet_state.hpp"
#include "sim/simulator.hpp"
#include "trace/generator.hpp"
#include "trace/trace_table.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace fedra;
using Clock = std::chrono::steady_clock;

CostParams bench_params() {
  CostParams p;
  p.lambda = 0.1;
  p.tau = 1.0;
  p.model_bytes = 5e6;
  return p;
}

TraceTable make_traces(std::size_t n) {
  Rng rng(99);
  auto pool = generate_trace_set("lte_walking", 5, 600, rng);
  std::vector<std::uint32_t> assignment(n);
  for (std::size_t i = 0; i < n; ++i) {
    assignment[i] = static_cast<std::uint32_t>(i % pool.size());
  }
  return TraceTable(std::move(pool), std::move(assignment));
}

std::vector<double> make_freqs(const FleetState& fleet) {
  std::vector<double> freqs(fleet.size());
  for (std::size_t i = 0; i < freqs.size(); ++i) {
    freqs[i] = (0.4 + 0.15 * static_cast<double>(i % 5)) *
               fleet.max_freq_hz()[i];
  }
  return freqs;
}

/// Aggregate totals of one round (the summary-layout surface the oracle
/// and the engine are compared on, bit for bit).
struct RoundTotals {
  double iteration_time = 0.0;
  double total_energy = 0.0;
  double total_compute_energy = 0.0;
  double cost = 0.0;
  double reward = 0.0;
  std::size_t num_scheduled = 0;
  std::size_t num_completed = 0;

  bool operator==(const RoundTotals&) const = default;
};

RoundTotals totals_of(const IterationResult& r) {
  return {r.iteration_time, r.total_energy,   r.total_compute_energy,
          r.cost,           r.reward,         r.num_scheduled,
          r.num_completed};
}

/// Scalar oracle: per-device math through the *_reference kernels, totals
/// accumulated in the engine's fixed kPricingBlock structure so the
/// comparison is exact at every fleet size.
RoundTotals oracle_round(const FleetState& fleet, const TraceTable& traces,
                         const CostParams& params,
                         const std::vector<double>& freqs) {
  const std::size_t n = fleet.size();
  constexpr std::size_t kBlock = FlSimulator::kPricingBlock;
  const std::size_t nblocks = (n + kBlock - 1) / kBlock;
  RoundTotals t;
  t.num_scheduled = n;
  t.num_completed = n;
  std::vector<double> freq(kBlock);
  std::vector<double> tcmp(kBlock);
  std::vector<double> ecmp(kBlock);
  double makespan = 0.0;
  for (std::size_t b = 0; b < nblocks; ++b) {
    const std::size_t begin = b * kBlock;
    const std::size_t end = std::min(n, begin + kBlock);
    const std::size_t bn = end - begin;
    fleet::price_compute_reference(
        bn, params.tau, FlSimulator::kMinFreqFraction,
        fleet.cycles_per_bit().data() + begin,
        fleet.dataset_bits().data() + begin,
        fleet.capacitance().data() + begin, fleet.max_freq_hz().data() + begin,
        freqs.data() + begin, freq.data(), tcmp.data(), ecmp.data());
    double block_energy = 0.0;
    double block_compute = 0.0;
    double block_makespan = 0.0;
    for (std::size_t k = 0; k < bn; ++k) {
      const std::size_t i = begin + k;
      const double upload_start = tcmp[k];
      const double upload_end =
          traces[i].upload_finish_time(upload_start, params.model_bytes);
      const double comm_time = upload_end - upload_start;
      const double total_time = tcmp[k] + comm_time;
      const double comm_energy = fleet.tx_power_w()[i] * comm_time;
      const double energy = ecmp[k] + comm_energy;
      block_energy += energy;
      block_compute += ecmp[k];
      block_makespan = std::max(block_makespan, total_time);
    }
    t.total_energy += block_energy;
    t.total_compute_energy += block_compute;
    makespan = std::max(makespan, block_makespan);
  }
  t.iteration_time = makespan;
  t.cost = iteration_cost(makespan, t.total_energy, params);
  t.reward = iteration_reward(makespan, t.total_energy, params);
  return t;
}

struct SizeRow {
  std::size_t n = 0;
  double oracle_us = 0.0;
  double price_us_pool1 = 0.0;
  double price_us_pool2 = 0.0;
  double price_us_pool8 = 0.0;
  double rows_us_pool8 = 0.0;
  bool exact = true;
};

template <typename F>
double best_of_us(int reps, F&& f) {
  double best = std::numeric_limits<double>::infinity();
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    f();
    const auto t1 = Clock::now();
    best = std::min(
        best, std::chrono::duration<double, std::micro>(t1 - t0).count());
  }
  return best;
}

SizeRow run_size(std::size_t n, int reps) {
  const FleetState fleet = make_fleet_state(n, FleetModel{}, 2024);
  const TraceTable traces = make_traces(n);
  const CostParams params = bench_params();
  const auto freqs = make_freqs(fleet);

  SizeRow row;
  row.n = n;

  RoundTotals expected;
  row.oracle_us = best_of_us(
      reps, [&] { expected = oracle_round(fleet, traces, params, freqs); });

  FlSimulator sim(fleet, traces, params);
  StepOptions opts;
  opts.dry_run_at = 0.0;
  opts.outcomes = OutcomeLayout::kSummary;

  double* const slots[3] = {&row.price_us_pool1, &row.price_us_pool2,
                            &row.price_us_pool8};
  const std::size_t workers[3] = {1, 2, 8};
  for (int w = 0; w < 3; ++w) {
    ThreadPool pool(workers[w]);
    opts.pool = &pool;
    RoundTotals got;
    *slots[w] = best_of_us(
        reps, [&] { got = totals_of(sim.preview(freqs, opts)); });
    if (!(got == expected)) {
      row.exact = false;
      std::fprintf(stderr,
                   "bench_fleet: BIT MISMATCH n=%zu pool=%zu "
                   "(engine T=%.17g E=%.17g vs oracle T=%.17g E=%.17g)\n",
                   n, workers[w], got.iteration_time, got.total_energy,
                   expected.iteration_time, expected.total_energy);
    }
  }

  // Per-device rows at the widest pool (what a fleet-scale caller that
  // still wants outcomes pays for them).
  {
    ThreadPool pool(8);
    opts.pool = &pool;
    opts.outcomes = OutcomeLayout::kRows;
    RoundTotals got;
    row.rows_us_pool8 = best_of_us(
        reps, [&] { got = totals_of(sim.preview(freqs, opts)); });
    if (!(got == expected)) {
      row.exact = false;
      std::fprintf(stderr, "bench_fleet: per-device rows mismatch at n=%zu\n",
                   n);
    }
  }
  return row;
}

struct ChurnRow {
  std::size_t n = 0;
  std::size_t cohort = 0;
  std::size_t rounds = 0;
  double step_us_pool1 = 0.0;  // fastest model-drawn step per pool
  double step_us_pool2 = 0.0;
  double step_us_pool8 = 0.0;
  bool exact = true;
};

/// Every total and failure count of one round.
bool same_round(const IterationResult& a, const IterationResult& b) {
  return totals_of(a) == totals_of(b) && a.num_crashes == b.num_crashes &&
         a.num_dropouts == b.num_dropouts &&
         a.num_timeouts == b.num_timeouts &&
         a.num_upload_failures == b.num_upload_failures &&
         a.total_retries == b.total_retries;
}

ChurnRow run_churn(std::size_t n, std::size_t rounds) {
  const FleetState fleet = make_fleet_state(n, FleetModel{}, 2024);
  const auto freqs = make_freqs(fleet);
  FlSimulator sim(fleet, make_traces(n), bench_params());
  // The churn mix README.md uses for fedra::fault.
  fault::FaultConfig churn;
  churn.dropout_prob = 0.05;
  churn.straggler_prob = 0.15;
  churn.crash_prob = 0.02;
  churn.upload_failure_prob = 0.1;

  ChurnRow row;
  row.n = n;
  row.cohort = n / 10;
  row.rounds = rounds;
  double* const slots[3] = {&row.step_us_pool1, &row.step_us_pool2,
                            &row.step_us_pool8};
  const std::size_t workers[3] = {1, 2, 8};
  for (int w = 0; w < 3; ++w) {
    ThreadPool pool(workers[w]);
    fault::FaultModel model(churn, 42);
    fault::FaultModel twin(churn, 42);
    sim.reset(0.0);
    *slots[w] = std::numeric_limits<double>::infinity();
    for (std::size_t r = 0; r < rounds; ++r) {
      const std::vector<bool> mask = sample_cohort(n, row.cohort, 7, r).mask(n);
      StepOptions opts;
      opts.participating = &mask;
      opts.outcomes = OutcomeLayout::kSummary;
      opts.pool = &pool;

      const fault::RoundFaults assignment = twin.advance(sim.iteration(), n);
      StepOptions given = opts;
      given.faults = &assignment;
      given.dry_run_at = sim.now();
      const IterationResult expected = sim.preview(freqs, given);

      StepOptions drawn = opts;
      drawn.fault_model = &model;
      const auto t0 = Clock::now();
      const IterationResult got = sim.step(freqs, drawn);
      const auto t1 = Clock::now();
      *slots[w] = std::min(
          *slots[w],
          std::chrono::duration<double, std::micro>(t1 - t0).count());
      if (!same_round(got, expected) ||
          model.crash_state() != twin.crash_state()) {
        row.exact = false;
        std::fprintf(stderr,
                     "bench_fleet: CHURN MISMATCH n=%zu pool=%zu round=%zu "
                     "(drawn cost=%.17g crashes=%zu vs assignment "
                     "cost=%.17g crashes=%zu)\n",
                     n, workers[w], r, got.cost, got.num_crashes,
                     expected.cost, expected.num_crashes);
      }
    }
  }
  return row;
}

void write_json(const std::string& path, bool smoke, int reps,
                const std::vector<SizeRow>& rows, bool all_exact,
                const ChurnRow& churn) {
  std::ofstream os(path);
  if (!os) {
    std::fprintf(stderr, "bench_fleet: cannot write %s\n", path.c_str());
    return;
  }
  os << "{\n";
  os << "  \"schema\": \"fedra.bench.fleet.v3\",\n";
  os << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n";
  os << "  \"reps\": " << reps << ",\n";
  os << "  \"pricing_exact\": " << (all_exact ? "true" : "false") << ",\n";
  os << "  \"sizes\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const SizeRow& r = rows[i];
    os << "    {\"n\": " << r.n << ", \"oracle_us\": " << r.oracle_us
       << ", \"price_us_pool1\": " << r.price_us_pool1
       << ", \"price_us_pool2\": " << r.price_us_pool2
       << ", \"price_us_pool8\": " << r.price_us_pool8
       << ", \"rows_us_pool8\": " << r.rows_us_pool8
       << ", \"exact\": " << (r.exact ? "true" : "false") << "}"
       << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  os << "  ],\n";
  os << "  \"churn_exact\": " << (churn.exact ? "true" : "false") << ",\n";
  os << "  \"churn\": {\"n\": " << churn.n << ", \"cohort\": " << churn.cohort
     << ", \"rounds\": " << churn.rounds
     << ", \"step_us_pool1\": " << churn.step_us_pool1
     << ", \"step_us_pool2\": " << churn.step_us_pool2
     << ", \"step_us_pool8\": " << churn.step_us_pool8 << "}\n";
  os << "}\n";
  std::printf("bench_fleet: wrote %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  int reps = 5;
  std::string out_path = "BENCH_fleet.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--reps" && i + 1 < argc) {
      reps = std::atoi(argv[++i]);
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: bench_fleet [--smoke] [--reps N] [--out PATH]\n");
      return 2;
    }
  }
  if (smoke) reps = 1;

  std::printf("fleet pricing scaling curve (simd tier: %s)\n",
              fleet::simd_tier());
  std::printf("%10s %14s %14s %14s %14s %14s  %s\n", "devices", "oracle_us",
              "pool1_us", "pool2_us", "pool8_us", "rows_us", "exact");

  std::vector<SizeRow> rows;
  bool all_exact = true;
  for (std::size_t n : {50u, 1000u, 100000u, 1000000u}) {
    const SizeRow row = run_size(n, reps);
    std::printf("%10zu %14.1f %14.1f %14.1f %14.1f %14.1f  %s\n", row.n,
                row.oracle_us, row.price_us_pool1, row.price_us_pool2,
                row.price_us_pool8, row.rows_us_pool8,
                row.exact ? "yes" : "NO");
    all_exact = all_exact && row.exact;
    rows.push_back(row);
  }

  const ChurnRow churn = run_churn(1000000, 3);
  std::printf("\nchurn round (%zu devices, %zu cohort, %zu rounds per pool)\n",
              churn.n, churn.cohort, churn.rounds);
  std::printf("%14s %14s %14s  %s\n", "pool1_us", "pool2_us", "pool8_us",
              "exact");
  std::printf("%14.1f %14.1f %14.1f  %s\n", churn.step_us_pool1,
              churn.step_us_pool2, churn.step_us_pool8,
              churn.exact ? "yes" : "NO");

  write_json(out_path, smoke, reps, rows, all_exact, churn);
  if (!all_exact) {
    std::fprintf(stderr,
                 "bench_fleet: FAILED — engine does not match the scalar "
                 "oracle bitwise\n");
    return 1;
  }
  if (!churn.exact) {
    std::fprintf(stderr,
                 "bench_fleet: FAILED — the model-drawn churn round does not "
                 "match the advance() assignment bitwise\n");
    return 1;
  }
  std::printf("bench_fleet: all fleet sizes priced bit-identically to the "
              "scalar oracle; churn rounds match their assignments\n");
  return 0;
}
