#include "sim/simulator_base.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>

#include "sim/fleet_pricing.hpp"
#include "trace/transforms.hpp"
#include "util/contracts.hpp"
#include "util/thread_pool.hpp"

namespace fedra {

namespace {

/// One segment of a device's round timeline. Energy is spent uniformly
/// over the segment (constant power), which makes mid-segment cutoffs
/// exact: a device cut at fraction x of a segment is charged x of its
/// energy.
struct TimelinePhase {
  enum Kind { kCompute, kComm, kWait };
  double duration = 0.0;
  double energy = 0.0;
  Kind kind = kCompute;
};

/// Replays `phases` up to `cut` seconds after the round start and writes
/// the realized per-phase times and energies into `out`. `cut` may be
/// infinity (no cutoff).
void apply_timeline(std::span<const TimelinePhase> phases, double cut,
                    DeviceOutcome& out) {
  out.compute_time = 0.0;
  out.comm_time = 0.0;
  out.compute_energy = 0.0;
  out.comm_energy = 0.0;
  double t = 0.0;
  for (const auto& phase : phases) {
    if (t >= cut) break;
    const double run = std::min(phase.duration, cut - t);
    const double frac = phase.duration > 0.0 ? run / phase.duration : 1.0;
    const double spent = phase.energy * frac;
    switch (phase.kind) {
      case TimelinePhase::kCompute:
        out.compute_time += run;
        out.compute_energy += spent;
        break;
      case TimelinePhase::kComm:
        out.comm_time += run;
        out.comm_energy += spent;
        break;
      case TimelinePhase::kWait:
        break;  // backoff: time passes, no energy
    }
    t += run;
  }
  out.total_time = t;
  out.energy = out.compute_energy + out.comm_energy;
}

/// Per-thread scratch columns for one pricing block (reused across blocks
/// and rounds; capacity grows to kPricingBlock once and stays).
struct BlockScratch {
  std::vector<std::size_t> members;  // participants' block offsets
  // The members' price_compute inputs, gathered (masked rounds only).
  std::vector<double> cycles;
  std::vector<double> bits;
  std::vector<double> capacitance;
  std::vector<double> max_freq;
  std::vector<double> request;
  // Priced columns, one slot per member.
  std::vector<double> freq;
  std::vector<double> tcmp;
  std::vector<double> ecmp;
  std::vector<fault::DeviceFault> faults;  // model-drawn, block-relative
  std::vector<std::size_t> solve_idx;
  std::vector<double> solve_start;
  std::vector<double> solve_end;
  std::vector<TimelinePhase> phases;  // one faulty device's timeline

  void ensure(std::size_t n) {
    if (freq.size() < n) {
      members.resize(n);
      cycles.resize(n);
      bits.resize(n);
      capacitance.resize(n);
      max_freq.resize(n);
      request.resize(n);
      freq.resize(n);
      tcmp.resize(n);
      ecmp.resize(n);
      faults.resize(n);
    }
  }
};

BlockScratch& block_scratch() {
  thread_local BlockScratch s;
  return s;
}

}  // namespace

/// Partial round totals for one pricing block, accumulated sequentially in
/// device order and combined across blocks in block order.
struct SimulatorBase::BlockTotals {
  double energy = 0.0;
  double compute_energy = 0.0;
  double makespan = 0.0;
  std::size_t scheduled = 0;
  std::size_t completed = 0;
  std::size_t crashes = 0;
  std::size_t dropouts = 0;
  std::size_t timeouts = 0;
  std::size_t upload_failures = 0;
  std::size_t retries = 0;
};

/// Where a round's faults come from: an explicit assignment read in place,
/// or a model drawn block by block (its crash chain evolved in place when
/// `chain` is set), or neither — a fault-free round.
struct SimulatorBase::FaultSource {
  const fault::RoundFaults* assignment = nullptr;
  const fault::FaultModel* model = nullptr;
  std::size_t iteration = 0;
  std::vector<bool>* chain = nullptr;
};

SimulatorBase::SimulatorBase(std::vector<DeviceProfile> devices,
                             std::vector<BandwidthTrace> traces,
                             CostParams params, double start_time)
    : SimulatorBase(FleetState(devices), TraceTable(std::move(traces)),
                    params, start_time) {}

SimulatorBase::SimulatorBase(FleetState fleet, TraceTable traces,
                             CostParams params, double start_time)
    : now_(start_time),
      fleet_(std::move(fleet)),
      traces_(std::move(traces)),
      params_(params) {
  FEDRA_EXPECTS(!fleet_.empty());
  FEDRA_EXPECTS(fleet_.size() == traces_.size());
  FEDRA_EXPECTS(params_.tau > 0.0);
  FEDRA_EXPECTS(params_.model_bytes > 0.0);
  FEDRA_EXPECTS(start_time >= 0.0);
}

void SimulatorBase::reset(double start_time) {
  FEDRA_EXPECTS(start_time >= 0.0);
  now_ = start_time;
  iteration_ = 0;
}

namespace {

/// Per-device timeline under a fault assignment (slow path). `phases` is
/// the caller's reusable buffer.
void faulty_device_round(const DeviceProfile& dev,
                         const BandwidthTrace& base_trace,
                         const fault::DeviceFault& f, const CostParams& params,
                         double start_time, double deadline,
                         std::vector<TimelinePhase>& phases,
                         DeviceOutcome& out) {
  // Radio outage: the device uploads against a blacked-out copy of its
  // trace for this round only (the DRL state keeps seeing the measured
  // base trace — outages are not announced in advance).
  BandwidthTrace blacked;
  const BandwidthTrace* trace = &base_trace;
  if (f.blackout_duration > 0.0) {
    blacked = blackout_trace(base_trace, start_time + f.blackout_offset,
                             f.blackout_duration);
    trace = &blacked;
  }

  phases.clear();

  // Compute, stretched by background load. The CPU stays busy at freq_hz
  // for the whole stretched interval, so energy scales with the slowdown.
  TimelinePhase compute;
  compute.kind = TimelinePhase::kCompute;
  compute.duration =
      dev.compute_time(out.freq_hz, params.tau) * f.compute_slowdown;
  compute.energy =
      dev.compute_energy(out.freq_hz, params.tau) * f.compute_slowdown;
  phases.push_back(compute);

  // Upload attempts: `failed_uploads` failures, then one success unless
  // the retry budget is exhausted. Each attempt moves the (degraded)
  // payload through the trace integral from its own start time; failed
  // attempts back off exponentially before the next try.
  const double payload = params.model_bytes * f.upload_slowdown;
  const std::size_t attempts = f.failed_uploads + (f.upload_exhausted ? 0 : 1);
  double t = start_time + compute.duration;
  double last_attempt_duration = 0.0;
  for (std::size_t a = 0; a < attempts; ++a) {
    const double end = trace->upload_finish_time(t, payload);
    TimelinePhase up;
    up.kind = TimelinePhase::kComm;
    up.duration = end - t;
    up.energy = dev.comm_energy(up.duration);
    phases.push_back(up);
    last_attempt_duration = up.duration;
    t = end;
    if (a + 1 < attempts) {
      TimelinePhase wait;
      wait.kind = TimelinePhase::kWait;
      wait.duration = f.retry_backoff_s * static_cast<double>(1ULL << a);
      phases.push_back(wait);
      t += wait.duration;
    }
  }

  double full = 0.0;
  for (const auto& phase : phases) full += phase.duration;

  // Resolution: when does the server learn this device's fate?
  double resolution = full;
  DeviceFailure failure =
      f.upload_exhausted ? DeviceFailure::kUpload : DeviceFailure::kNone;
  if (f.dropout) {
    resolution = f.dropout_frac * full;
    failure = DeviceFailure::kDropout;
  }
  if (resolution > deadline) {
    resolution = deadline;  // the server cut the round first
    failure = DeviceFailure::kTimeout;
  }

  apply_timeline(phases, resolution, out);
  out.completed = failure == DeviceFailure::kNone;
  out.failure = failure;
  out.retries =
      f.upload_exhausted ? f.failed_uploads - 1 : f.failed_uploads;
  out.avg_bandwidth =
      out.completed && last_attempt_duration > 0.0
          ? params.model_bytes / last_attempt_duration
          : 0.0;
}

}  // namespace

void SimulatorBase::price_block(std::size_t begin, std::size_t end,
                                const std::vector<double>& freqs_hz,
                                const std::vector<bool>* participating,
                                const FaultSource& source,
                                double start_time, double deadline,
                                IterationResult& result,
                                BlockTotals& totals) const {
  const std::size_t bn = end - begin;
  BlockScratch& s = block_scratch();
  s.ensure(bn);

  // This block's faults, indexed like the scratch columns. A model is
  // drawn here, on the worker that prices the block: participants get
  // their full fault, non-participants only step the crash chain.
  const fault::DeviceFault* faults = nullptr;
  if (source.assignment != nullptr) {
    faults = source.assignment->devices.data() + begin;
  } else if (source.model != nullptr) {
    source.model->draw_block(source.iteration, begin, end,
                             source.model->crash_state(), participating,
                             s.faults.data(), source.chain);
    faults = s.faults.data();
  }

  // The block's members as block offsets (without a mask every lane is
  // one), and their price_compute inputs: read in place when everyone
  // takes part, else gathered so that the work below is O(members).
  const FleetView view(fleet_);
  const double* cycles = view.cycles_per_bit().data() + begin;
  const double* bits = view.dataset_bits().data() + begin;
  const double* capacitance = view.capacitance().data() + begin;
  const double* max_freq = view.max_freq_hz().data() + begin;
  const double* request = freqs_hz.data() + begin;
  std::size_t m = bn;
  if (participating != nullptr) {
    m = 0;
    for (std::size_t k = 0; k < bn; ++k) {
      s.members[m] = k;
      m += (*participating)[begin + k] ? 1 : 0;
    }
    for (std::size_t j = 0; j < m; ++j) {
      const std::size_t k = s.members[j];
      s.cycles[j] = cycles[k];
      s.bits[j] = bits[k];
      s.capacitance[j] = capacitance[k];
      s.max_freq[j] = max_freq[k];
      s.request[j] = request[k];
    }
    cycles = s.cycles.data();
    bits = s.bits.data();
    capacitance = s.capacitance.data();
    max_freq = s.max_freq.data();
    request = s.request.data();
  }
  const auto lane = [&](std::size_t j) {
    return participating != nullptr ? s.members[j] : j;
  };

  // Compute-side pricing of the members through the SIMD-dispatched
  // kernel. Every tier is a pure element-wise map, so gathered lanes get
  // the same bits as in place; crashed members are priced too and
  // overwritten below.
  fleet::price_compute(m, params_.tau, kMinFreqFraction, cycles, bits,
                       capacitance, max_freq, request, s.freq.data(),
                       s.tcmp.data(), s.ecmp.data());

  // Collect the members that take the fault-free upload path and solve
  // their trace integrals in lockstep batches (device order preserved).
  s.solve_idx.clear();
  s.solve_start.clear();
  for (std::size_t j = 0; j < m; ++j) {
    const std::size_t k = lane(j);
    if (faults != nullptr && faults[k].faulty()) continue;
    s.solve_idx.push_back(begin + k);
    s.solve_start.push_back(start_time + s.tcmp[j]);
  }
  s.solve_end.resize(s.solve_idx.size());
  traces_.upload_finish_times(s.solve_idx.data(), s.solve_idx.size(),
                              s.solve_start.data(), params_.model_bytes,
                              s.solve_end.data());

  // Per-device rows, or nullptr when the round stores aggregates only.
  DeviceOutcome* const rows =
      result.devices.empty() ? nullptr : result.devices.data();
  const auto store = [rows](std::size_t i, const DeviceOutcome& out) {
    if (rows != nullptr) rows[i] = out;
  };

  // Non-members sit the round out: all fields zero, no barrier share.
  if (participating != nullptr && rows != nullptr) {
    DeviceOutcome sat_out;
    sat_out.participated = false;
    sat_out.completed = false;
    for (std::size_t k = 0; k < bn; ++k) {
      if (!(*participating)[begin + k]) rows[begin + k] = sat_out;
    }
  }

  // Assembly pass over the members: per-device branch structure and
  // accumulation order identical to the legacy sequential engine.
  std::size_t solve_pos = 0;
  for (std::size_t j = 0; j < m; ++j) {
    const std::size_t k = lane(j);
    const std::size_t i = begin + k;
    DeviceOutcome out;
    ++totals.scheduled;

    const fault::DeviceFault* df = faults != nullptr ? &faults[k] : nullptr;
    if (df != nullptr && df->crashed) {
      // Down before the round started: the server skips a known-dead
      // connection — no time, no energy, no barrier contribution.
      out.completed = false;
      out.failure = DeviceFailure::kCrash;
      ++totals.crashes;
      store(i, out);
      continue;
    }

    out.freq_hz = s.freq[j];

    if (df == nullptr || !df->faulty()) {
      // Fault-free timeline from the precomputed columns — same values,
      // same operation order as the per-device scalar path.
      out.compute_time = s.tcmp[j];
      const double upload_start = s.solve_start[solve_pos];
      const double upload_end = s.solve_end[solve_pos];
      ++solve_pos;
      out.comm_time = upload_end - upload_start;
      out.total_time = out.compute_time + out.comm_time;
      out.avg_bandwidth = out.comm_time > 0.0
                              ? params_.model_bytes / out.comm_time
                              : traces_[i].bandwidth_at(upload_start);

      out.compute_energy = s.ecmp[j];
      out.comm_energy = view.tx_power_w(i) * out.comm_time;
      out.energy = out.compute_energy + out.comm_energy;

      if (out.total_time > deadline) {
        // Healthy but too slow: the server cut the round at the deadline.
        const TimelinePhase phases[] = {
            {out.compute_time, out.compute_energy, TimelinePhase::kCompute},
            {out.comm_time, out.comm_energy, TimelinePhase::kComm}};
        apply_timeline(phases, deadline, out);
        out.completed = false;
        out.failure = DeviceFailure::kTimeout;
        out.avg_bandwidth = 0.0;  // no completed upload to estimate from
      }
    } else {
      faulty_device_round(fleet_.device(i), traces_[i], *df, params_,
                          start_time, deadline, s.phases, out);
    }

    switch (out.failure) {
      case DeviceFailure::kDropout: ++totals.dropouts; break;
      case DeviceFailure::kTimeout: ++totals.timeouts; break;
      case DeviceFailure::kUpload: ++totals.upload_failures; break;
      case DeviceFailure::kNone:
      case DeviceFailure::kCrash: break;
    }
    totals.retries += out.retries;
    if (out.completed) ++totals.completed;

    totals.energy += out.energy;
    totals.compute_energy += out.compute_energy;
    totals.makespan = std::max(totals.makespan, out.total_time);
    store(i, out);
  }
}

IterationResult SimulatorBase::compute_round(
    const std::vector<double>& freqs_hz, const StepOptions& options,
    bool advance, double start_time) const {
  const std::size_t n = fleet_.size();
  FEDRA_EXPECTS(freqs_hz.size() == n);
  const std::vector<bool>* participating = options.participating;
  if (participating != nullptr) {
    FEDRA_EXPECTS(participating->size() == n);
    FEDRA_EXPECTS(std::find(participating->begin(), participating->end(),
                            true) != participating->end());
  }
  // An explicit assignment overrides the model, which it leaves untouched.
  FaultSource faults;
  if (options.faults != nullptr) {
    FEDRA_EXPECTS(options.faults->devices.size() == n);
    faults.assignment = options.faults;
  } else if (options.fault_model != nullptr &&
             options.fault_model->enabled()) {
    faults.model = options.fault_model;
    faults.iteration = iteration_;
    // Sized here, serially: the blocks below then only flip their own bits.
    if (advance) faults.chain = &options.fault_model->chain_for(n);
  }
  const double deadline = options.deadline > 0.0
                              ? options.deadline
                              : std::numeric_limits<double>::infinity();

  IterationResult result;
  result.start_time = start_time;
  if (options.outcomes == OutcomeLayout::kRows) result.devices.resize(n);

  // Price in fixed blocks. Boundaries depend only on n, blocks write
  // disjoint slots and their own totals, and partials combine in block
  // order below — so any pool size (or none) produces identical bits.
  // Blocks start at multiples of 64 devices, so their crash-chain bits
  // live in disjoint std::vector<bool> words.
  static_assert(kPricingBlock % 64 == 0);
  const std::size_t nblocks = (n + kPricingBlock - 1) / kPricingBlock;
  std::vector<BlockTotals> totals(nblocks);
  const auto run_block = [&](std::size_t b) {
    const std::size_t begin = b * kPricingBlock;
    const std::size_t end = std::min(n, begin + kPricingBlock);
    price_block(begin, end, freqs_hz, participating, faults, start_time,
                deadline, result, totals[b]);
  };
  if (nblocks <= 1) {
    run_block(0);
  } else {
    ThreadPool& pool =
        options.pool != nullptr ? *options.pool : global_pool();
    pool.parallel_for(0, nblocks, run_block);
  }

  double makespan = 0.0;
  for (const BlockTotals& t : totals) {
    result.num_scheduled += t.scheduled;
    result.num_completed += t.completed;
    result.num_crashes += t.crashes;
    result.num_dropouts += t.dropouts;
    result.num_timeouts += t.timeouts;
    result.num_upload_failures += t.upload_failures;
    result.total_retries += t.retries;
    result.total_energy += t.energy;
    result.total_compute_energy += t.compute_energy;
    makespan = std::max(makespan, t.makespan);
  }

  result.iteration_time = makespan;
  // Second pass: idle time at the barrier needs the round makespan.
  for (auto& out : result.devices) {
    out.idle_time = out.participated && out.completed
                        ? makespan - out.total_time
                        : 0.0;
  }
  result.cost = iteration_cost(makespan, result.total_energy, params_);
  result.reward = iteration_reward(makespan, result.total_energy, params_);
  return result;
}

}  // namespace fedra
