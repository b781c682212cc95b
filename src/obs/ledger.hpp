// Run ledger: a schema-versioned JSONL record of everything a federated
// run did, one line per event.
//
// The telemetry subsystem (PR 1) answers "how long did things take"; the
// ledger answers "which device, which phase, and which decision drove the
// cost".  Three record types share one file:
//
//   {"type":"header", ...}    schema version, run id, lambda
//   {"type":"round", ...}     one per simulator iteration: makespan, energy,
//                             the T^k / lambda*Sigma E decomposition, fault
//                             counters, and a per-device breakdown (compute /
//                             upload time, energy, sampled bandwidth, chosen
//                             frequency, retries, failure kind)
//   {"type":"decision", ...}  one per controller/env action: observed state,
//                             action, preview() predicted cost vs realized
//                             cost
//   {"type":"fl_round", ...}  one per FedAvg aggregation: loss/accuracy
//
// Gating: RunLedger::enabled() is the ledger's one switch, independent of
// the Telemetry facade.  Instrumentation sites test
// `if (RunLedger::enabled()) ...`, so with the ledger off the hot path
// pays one relaxed load and zero heap allocations (verified in
// tests/test_obs.cpp), and an enabled ledger records every round whether
// or not telemetry is on.
//
// All doubles are written with std::to_chars shortest round-trip form, so
// readers recover them bit-exactly (and formatting costs ~10x less than
// the old "%.17g" snprintf); tests/test_obs.cpp checks that the parsed
// per-round decomposition sums bit-exactly to the simulator's reported
// T^k + lambda*Sigma E.
//
// Writing: the hot thread only serializes each record into a binary frame
// pushed into a bounded ring (src/obs/async_writer.hpp); a background
// drainer formats the JSONL. Overflowing frames are dropped whole and
// counted (dropped_records() + the obs.ledger.dropped telemetry counter) —
// recording never blocks the simulation. flush()/disable() wait for the
// drainer, so after either the file holds the header followed by exactly
// the *_record_json() line of every accepted record, in record order.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace fedra::obs {

inline constexpr const char* kLedgerSchema = "fedra.ledger.v1";

/// Per-device rows recorded per round before summarizing (a 10^6-device
/// round must not write a million JSON objects per line); the remainder is
/// counted in RoundRecord::devices_omitted.
inline constexpr std::size_t kMaxDeviceRows = 1024;

/// Per-device slice of one round record.  Field names mirror
/// sim::DeviceOutcome; `failure` is the lowercase enum name ("none",
/// "crash", "dropout", "timeout", "upload").
struct DeviceRoundRecord {
  std::uint32_t device = 0;
  bool participated = false;
  bool completed = false;
  std::string failure = "none";
  std::uint32_t retries = 0;
  double freq_hz = 0.0;
  double compute_time = 0.0;
  double comm_time = 0.0;
  double idle_time = 0.0;
  double compute_energy = 0.0;
  double comm_energy = 0.0;
  double energy = 0.0;
  double avg_bandwidth = 0.0;
};

/// One simulator iteration.  `time_term` + `energy_term` == `cost`
/// bit-exactly (both sides are computed as iteration_time + lambda*energy
/// with no fused contractions; see DESIGN.md section 7).
struct RoundRecord {
  std::size_t round = 0;
  std::string source = "sim";  ///< the writer; FlSimulator::step is "sim"
  double start_time = 0.0;     ///< simulator clock when the round began
  double iteration_time = 0.0; ///< T^k: the round makespan
  double total_energy = 0.0;   ///< Sigma_i E_i^k
  double time_term = 0.0;      ///< T^k as it enters the cost
  double energy_term = 0.0;    ///< lambda * Sigma_i E_i^k
  double cost = 0.0;
  double reward = 0.0;
  std::size_t num_scheduled = 0;
  std::size_t num_completed = 0;
  std::size_t num_crashes = 0;
  std::size_t num_dropouts = 0;
  std::size_t num_timeouts = 0;
  std::size_t num_upload_failures = 0;
  std::size_t total_retries = 0;
  std::vector<DeviceRoundRecord> devices;
  /// Per-device rows NOT recorded (fleet-scale rounds summarize: the
  /// builder caps rows at kMaxDeviceRows, and summary-layout
  /// results carry no per-device outcomes at all).
  std::size_t devices_omitted = 0;
};

/// One control decision: what the agent saw, what it chose, what
/// preview() predicted and what the simulator then realized.  The
/// prediction is fault-free (preview is run without the fault model), so
/// in fault-free runs predicted == realized bit-exactly and under faults
/// the gap measures fault-driven cost.
struct DecisionRecord {
  std::size_t round = 0;
  std::string source = "env";  ///< "env" (FlEnv::step) or "ctl" (DrlController)
  double predicted_time = 0.0;
  double predicted_energy = 0.0;
  double predicted_cost = 0.0;
  double realized_time = 0.0;
  double realized_energy = 0.0;
  double realized_cost = 0.0;
  double reward = 0.0;          ///< learner-visible reward for this step
  std::vector<double> action;   ///< as issued (env: fractions; ctl: Hz)
  std::vector<double> state;    ///< observed state
};

/// One FedAvg aggregation round.
struct FlRoundRecord {
  std::size_t round = 0;
  double global_loss = 0.0;
  double global_accuracy = 0.0;
  double mean_client_loss = 0.0;
  std::size_t num_participants = 0;
  std::size_t num_delivered = 0;
};

struct LedgerConfig {
  std::string path;      ///< JSONL output path (truncated on enable)
  std::string run_id;    ///< free-form run identifier for the header
  double lambda = 0.0;   ///< cost weight, recorded in the header
  /// Capacity in bytes of the binary ring that hands records to the
  /// background drainer (rounded up to a power of two, min 4 KiB).
  /// Overflow drops whole records (counted), never blocks.
  std::size_t ring_bytes = 1 << 20;
};

/// Process-global ledger sink, modeled on telemetry::Telemetry: one
/// relaxed atomic load when off, a non-blocking ring enqueue when on.
/// Writers (simulator, env, controllers, FedAvg) construct record objects
/// only while the ledger is enabled; Telemetry does not gate them.
class RunLedger {
 public:
  static bool enabled() {
    return enabled_flag().load(std::memory_order_relaxed);
  }

  /// Opens `config.path` (truncating) and writes the header line.
  /// Returns false (and stays disabled) if the file cannot be opened.
  static bool enable(const LedgerConfig& config);
  /// Drains the writer, flushes and closes the file. Idempotent.
  static void disable();
  /// Waits until every accepted record reached the file, then flushes it.
  static void flush();
  static const LedgerConfig& config();
  /// Records accepted since enable() (header excluded). An accepted record
  /// is guaranteed to reach the file by the next flush().
  static std::uint64_t records_written();
  /// Records dropped by the full ring since enable().
  static std::uint64_t dropped_records();

  static void record_round(const RoundRecord& record);
  static void record_decision(const DecisionRecord& record);
  static void record_fl_round(const FlRoundRecord& record);

 private:
  static std::atomic<bool>& enabled_flag();
};

/// RAII thread-local mute for the global ledger: while at least one
/// instance is alive on a thread, record_* calls from that thread are
/// dropped (counted in suppressed_records() and the obs.ledger.suppressed
/// telemetry counter). The sweep engine wraps concurrently-running arm
/// tasks in one of these, so parallel arms cannot interleave rounds from
/// different experiments into a single ledger file; the serial reference
/// path stays un-suppressed and records exactly what the legacy loop did.
/// Nestable; scopes on different threads are independent.
class ScopedLedgerSuppression {
 public:
  ScopedLedgerSuppression();
  ~ScopedLedgerSuppression();
  ScopedLedgerSuppression(const ScopedLedgerSuppression&) = delete;
  ScopedLedgerSuppression& operator=(const ScopedLedgerSuppression&) = delete;

  /// True while the calling thread is inside a suppression scope.
  static bool active();
  /// Records dropped via suppression since process start.
  static std::uint64_t suppressed_records();
};

// ---------------------------------------------------------------------------
// Reader side (report tool, attribution, tests).

struct Ledger {
  std::string schema;
  std::string run_id;
  double lambda = 0.0;
  std::vector<RoundRecord> rounds;
  std::vector<DecisionRecord> decisions;
  std::vector<FlRoundRecord> fl_rounds;
  std::size_t parse_errors = 0;    ///< torn / malformed lines skipped
  std::size_t unknown_records = 0; ///< well-formed lines of unknown type
};

/// Parses a ledger stream.  Bad lines (torn writes, garbage, a round whose
/// device id is not below its own device count) are skipped and counted
/// in `parse_errors`; unknown record types are counted in
/// `unknown_records` for forward compatibility.  Never throws.
Ledger read_ledger(std::istream& in);

/// File wrapper; returns false only when the file cannot be opened (the
/// message lands in `*error` if non-null).
bool read_ledger_file(const std::string& path, Ledger& out,
                      std::string* error = nullptr);

/// Serialization helpers (exposed for tests and the report tool).
std::string round_record_json(const RoundRecord& record);
std::string decision_record_json(const DecisionRecord& record);
std::string fl_round_record_json(const FlRoundRecord& record);

}  // namespace fedra::obs
