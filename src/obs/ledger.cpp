#include "obs/ledger.hpp"

#include <cstdlib>
#include <fstream>
#include <limits>
#include <memory>
#include <mutex>
#include <utility>

#include "live/status.hpp"
#include "obs/async_writer.hpp"
#include "obs/json_min.hpp"
#include "telemetry/telemetry.hpp"

namespace fedra::obs {
namespace {

// Like Telemetry's GlobalState: heap-allocated and never destroyed so
// writers racing with process teardown never touch a dead object. While
// the async writer exists, its drainer thread is the only writer of `out`
// (the header was written before the drainer started). `mutex` guards the
// writer pointer for record_* and the enable/disable transitions;
// `out_mutex` guards the stream. They are separate so a record_* call
// never waits for the drainer's file writes.
struct LedgerState {
  std::mutex mutex;
  std::mutex out_mutex;
  std::ofstream out;
  std::unique_ptr<AsyncLedgerWriter> writer;
  std::atomic<bool> status_registered{false};  ///< /statusz source, once
  bool atexit_registered = false;              ///< disable() at exit, once
};

LedgerState& state() {
  static LedgerState* s = new LedgerState();
  return *s;
}

void count_drop() {
  FEDRA_TELEMETRY_IF {
    namespace tel = fedra::telemetry;
    static auto dropped =
        tel::Telemetry::metrics().counter("obs.ledger.dropped");
    dropped.add();
  }
}

thread_local int t_suppress_depth = 0;
std::atomic<std::uint64_t> g_suppressed{0};

/// True (and counted) when the calling thread sits inside a
/// ScopedLedgerSuppression scope; record_* bails out before touching the
/// ledger state, so suppression is contention-free.
bool consume_suppressed() {
  if (t_suppress_depth == 0) return false;
  g_suppressed.fetch_add(1, std::memory_order_relaxed);
  FEDRA_TELEMETRY_IF {
    namespace tel = fedra::telemetry;
    static auto suppressed =
        tel::Telemetry::metrics().counter("obs.ledger.suppressed");
    suppressed.add();
  }
  return true;
}

}  // namespace

ScopedLedgerSuppression::ScopedLedgerSuppression() { ++t_suppress_depth; }
ScopedLedgerSuppression::~ScopedLedgerSuppression() { --t_suppress_depth; }

bool ScopedLedgerSuppression::active() { return t_suppress_depth > 0; }

std::uint64_t ScopedLedgerSuppression::suppressed_records() {
  return g_suppressed.load(std::memory_order_relaxed);
}

std::atomic<bool>& RunLedger::enabled_flag() {
  static std::atomic<bool> flag{false};
  return flag;
}

bool RunLedger::enable(const LedgerConfig& config) {
  LedgerState& s = state();
  // Retire any previous async writer outside the locks (its drainer
  // takes out_mutex per line, so joining under it would deadlock).
  enabled_flag().store(false, std::memory_order_relaxed);
  s.writer.reset();
  std::scoped_lock lock(s.mutex, s.out_mutex);
  if (s.out.is_open()) s.out.close();
  s.out.open(config.path, std::ios::trunc);
  if (!s.out.is_open()) {
    return false;
  }
  if (!s.atexit_registered) {
    // Drains the ring at exit, as Telemetry flushes its sinks: records
    // still queued when main returns would otherwise be lost.
    std::atexit(RunLedger::disable);
    s.atexit_registered = true;
  }
  std::string header;
  JsonObject h(header);
  h.str("type", "header")
      .str("schema", kLedgerSchema)
      .str("run_id", config.run_id)
      .num("lambda", config.lambda);
  h.close();
  s.out << header << '\n';
  // The sink runs on the drainer thread; it takes the stream mutex per
  // chunk of lines so it cannot interleave with flush()/disable() stream
  // access.
  s.writer = std::make_unique<AsyncLedgerWriter>(
      config.ring_bytes, [&s](const std::string& lines) {
        std::lock_guard<std::mutex> sink_lock(s.out_mutex);
        if (s.out.is_open()) {
          s.out.write(lines.data(), static_cast<std::streamsize>(lines.size()));
        }
      });
  enabled_flag().store(true, std::memory_order_relaxed);
  if (!s.status_registered.exchange(true, std::memory_order_acq_rel)) {
    // Registered once and never unregistered: the state it reads is the
    // immortal LedgerState, so the callback can outlive any one run.
    live::register_status_source("ledger", [](std::string& out) {
      JsonObject o(out);
      o.flag("enabled", RunLedger::enabled())
          .u64("records_written", RunLedger::records_written())
          .u64("dropped", RunLedger::dropped_records())
          .u64("suppressed", ScopedLedgerSuppression::suppressed_records());
      o.close();
    });
  }
  return true;
}

void RunLedger::disable() {
  enabled_flag().store(false, std::memory_order_relaxed);
  LedgerState& s = state();
  // Drain + join first so every accepted record reaches the stream before
  // it is closed (flush-at-exit ordering).
  s.writer.reset();
  std::scoped_lock lock(s.mutex, s.out_mutex);
  if (s.out.is_open()) {
    s.out.flush();
    s.out.close();
  }
}

void RunLedger::flush() {
  LedgerState& s = state();
  if (s.writer != nullptr) s.writer->wait_drained();
  std::lock_guard<std::mutex> lock(s.out_mutex);
  if (s.out.is_open()) s.out.flush();
}

std::uint64_t RunLedger::records_written() {
  LedgerState& s = state();
  return s.writer != nullptr ? s.writer->accepted() : 0;
}

std::uint64_t RunLedger::dropped_records() {
  LedgerState& s = state();
  return s.writer != nullptr ? s.writer->dropped() : 0;
}

// The state mutex guards only the writer-pointer check and the
// (non-blocking) enqueue. The drainer writes the file under out_mutex, so
// recording never waits for disk I/O and stays wait-free in the practical
// sense the 4x-overhead gate measures.

void RunLedger::record_round(const RoundRecord& record) {
  if (!enabled()) return;
  if (consume_suppressed()) return;
  LedgerState& s = state();
  std::lock_guard<std::mutex> lock(s.mutex);
  if (s.writer != nullptr && !s.writer->enqueue_round(record)) count_drop();
}

void RunLedger::record_decision(const DecisionRecord& record) {
  if (!enabled()) return;
  if (consume_suppressed()) return;
  LedgerState& s = state();
  std::lock_guard<std::mutex> lock(s.mutex);
  if (s.writer != nullptr && !s.writer->enqueue_decision(record)) count_drop();
}

void RunLedger::record_fl_round(const FlRoundRecord& record) {
  if (!enabled()) return;
  if (consume_suppressed()) return;
  LedgerState& s = state();
  std::lock_guard<std::mutex> lock(s.mutex);
  if (s.writer != nullptr && !s.writer->enqueue_fl_round(record)) count_drop();
}

void append_record_json(const RoundRecord& r, std::string& out) {
  JsonObject o(out);
  o.str("type", "round")
      .u64("round", r.round)
      .str("source", r.source)
      .num("start_time", r.start_time)
      .num("iteration_time", r.iteration_time)
      .num("total_energy", r.total_energy)
      .num("time_term", r.time_term)
      .num("energy_term", r.energy_term)
      .num("cost", r.cost)
      .num("reward", r.reward)
      .u64("scheduled", r.num_scheduled)
      .u64("completed", r.num_completed)
      .u64("crashes", r.num_crashes)
      .u64("dropouts", r.num_dropouts)
      .u64("timeouts", r.num_timeouts)
      .u64("upload_failures", r.num_upload_failures)
      .u64("retries", r.total_retries);
  if (r.devices_omitted > 0) o.u64("devices_omitted", r.devices_omitted);
  o.member("devices") += '[';
  for (std::size_t i = 0; i < r.devices.size(); ++i) {
    const DeviceRoundRecord& d = r.devices[i];
    if (i > 0) out += ',';
    JsonObject row(out);
    row.u64("id", d.device)
        .flag("participated", d.participated)
        .flag("completed", d.completed)
        .str("failure", d.failure)
        .u64("retries", d.retries)
        .num("freq_hz", d.freq_hz)
        .num("t_cmp", d.compute_time)
        .num("t_com", d.comm_time)
        .num("t_idle", d.idle_time)
        .num("e_cmp", d.compute_energy)
        .num("e_com", d.comm_energy)
        .num("e", d.energy)
        .num("bw", d.avg_bandwidth);
    row.close();
  }
  out += ']';
  o.close();
}

void append_record_json(const DecisionRecord& r, std::string& out) {
  JsonObject o(out);
  o.str("type", "decision")
      .u64("round", r.round)
      .str("source", r.source)
      .num("pred_time", r.predicted_time)
      .num("pred_energy", r.predicted_energy)
      .num("pred_cost", r.predicted_cost)
      .num("real_time", r.realized_time)
      .num("real_energy", r.realized_energy)
      .num("real_cost", r.realized_cost)
      .num("reward", r.reward)
      .nums("action", r.action)
      .nums("state", r.state);
  o.close();
}

void append_record_json(const FlRoundRecord& r, std::string& out) {
  JsonObject o(out);
  o.str("type", "fl_round")
      .u64("round", r.round)
      .num("loss", r.global_loss)
      .num("accuracy", r.global_accuracy)
      .num("mean_client_loss", r.mean_client_loss)
      .u64("participants", r.num_participants)
      .u64("delivered", r.num_delivered);
  o.close();
}

std::string round_record_json(const RoundRecord& r) {
  std::string out;
  append_record_json(r, out);
  return out;
}

std::string decision_record_json(const DecisionRecord& r) {
  std::string out;
  append_record_json(r, out);
  return out;
}

std::string fl_round_record_json(const FlRoundRecord& r) {
  std::string out;
  append_record_json(r, out);
  return out;
}

// ---------------------------------------------------------------------------
// Reader.

namespace {

std::vector<double> to_double_vector(const JsonValue* v) {
  std::vector<double> out;
  if (v == nullptr || !v->is_array()) return out;
  out.reserve(v->array.size());
  for (const JsonValue& e : v->array) out.push_back(e.number_or(0.0));
  return out;
}

/// A non-negative count or id. Negative and NaN read as 0; values past
/// the range of size_t (including +inf) saturate instead of hitting the
/// undefined out-of-range conversion.
std::size_t get_index(const JsonValue& obj, const char* key) {
  const double v = obj.get_number(key, 0.0);
  constexpr double kPastMax =
      static_cast<double>(std::numeric_limits<std::size_t>::max()) + 1.0;
  if (!(v > 0.0)) return 0;
  if (v >= kPastMax) return std::numeric_limits<std::size_t>::max();
  return static_cast<std::size_t>(v);
}

/// Parses a round line into `r`. False when a device row names an id that
/// is not below the line's own device count: the writer always emits
/// id == row index, so such a line is corrupt, and consumers index
/// per-device tables by id.
bool parse_round(const JsonValue& obj, RoundRecord& r) {
  r.round = get_index(obj, "round");
  r.source = obj.get_string("source", "sim");
  r.start_time = obj.get_number("start_time");
  r.iteration_time = obj.get_number("iteration_time");
  r.total_energy = obj.get_number("total_energy");
  r.time_term = obj.get_number("time_term");
  r.energy_term = obj.get_number("energy_term");
  r.cost = obj.get_number("cost");
  r.reward = obj.get_number("reward");
  r.num_scheduled = get_index(obj, "scheduled");
  r.num_completed = get_index(obj, "completed");
  r.num_crashes = get_index(obj, "crashes");
  r.num_dropouts = get_index(obj, "dropouts");
  r.num_timeouts = get_index(obj, "timeouts");
  r.num_upload_failures = get_index(obj, "upload_failures");
  r.total_retries = get_index(obj, "retries");
  r.devices_omitted = get_index(obj, "devices_omitted");
  if (const JsonValue* devices = obj.find("devices");
      devices != nullptr && devices->is_array()) {
    r.devices.reserve(devices->array.size());
    for (const JsonValue& dv : devices->array) {
      if (!dv.is_object()) continue;
      const std::size_t id = get_index(dv, "id");
      if (id >= devices->array.size()) return false;
      DeviceRoundRecord d;
      d.device = static_cast<std::uint32_t>(id);
      d.participated = dv.get_bool("participated");
      d.completed = dv.get_bool("completed");
      d.failure = dv.get_string("failure", "none");
      d.retries = static_cast<std::uint32_t>(get_index(dv, "retries"));
      d.freq_hz = dv.get_number("freq_hz");
      d.compute_time = dv.get_number("t_cmp");
      d.comm_time = dv.get_number("t_com");
      d.idle_time = dv.get_number("t_idle");
      d.compute_energy = dv.get_number("e_cmp");
      d.comm_energy = dv.get_number("e_com");
      d.energy = dv.get_number("e");
      d.avg_bandwidth = dv.get_number("bw");
      r.devices.push_back(std::move(d));
    }
  }
  return true;
}

DecisionRecord parse_decision(const JsonValue& obj) {
  DecisionRecord r;
  r.round = get_index(obj, "round");
  r.source = obj.get_string("source", "env");
  r.predicted_time = obj.get_number("pred_time");
  r.predicted_energy = obj.get_number("pred_energy");
  r.predicted_cost = obj.get_number("pred_cost");
  r.realized_time = obj.get_number("real_time");
  r.realized_energy = obj.get_number("real_energy");
  r.realized_cost = obj.get_number("real_cost");
  r.reward = obj.get_number("reward");
  r.action = to_double_vector(obj.find("action"));
  r.state = to_double_vector(obj.find("state"));
  return r;
}

FlRoundRecord parse_fl_round(const JsonValue& obj) {
  FlRoundRecord r;
  r.round = get_index(obj, "round");
  r.global_loss = obj.get_number("loss");
  r.global_accuracy = obj.get_number("accuracy");
  r.mean_client_loss = obj.get_number("mean_client_loss");
  r.num_participants = get_index(obj, "participants");
  r.num_delivered = get_index(obj, "delivered");
  return r;
}

}  // namespace

Ledger read_ledger(std::istream& in) {
  Ledger ledger;
  std::string line;
  while (std::getline(in, line)) {
    // Cheap torn-write guard before the full parse: a record line must be
    // one complete object.
    std::size_t first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos) continue;  // blank line: not an error
    std::size_t last = line.find_last_not_of(" \t\r");
    if (line[first] != '{' || line[last] != '}') {
      ++ledger.parse_errors;
      continue;
    }
    JsonValue value;
    if (!parse_json(std::string_view(line).substr(first, last - first + 1),
                    value) ||
        !value.is_object()) {
      ++ledger.parse_errors;
      continue;
    }
    const std::string type = value.get_string("type");
    if (type == "header") {
      ledger.schema = value.get_string("schema");
      ledger.run_id = value.get_string("run_id");
      ledger.lambda = value.get_number("lambda");
    } else if (type == "round") {
      RoundRecord round;
      if (parse_round(value, round)) {
        ledger.rounds.push_back(std::move(round));
      } else {
        ++ledger.parse_errors;
      }
    } else if (type == "decision") {
      ledger.decisions.push_back(parse_decision(value));
    } else if (type == "fl_round") {
      ledger.fl_rounds.push_back(parse_fl_round(value));
    } else {
      ++ledger.unknown_records;
    }
  }
  return ledger;
}

bool read_ledger_file(const std::string& path, Ledger& out,
                      std::string* error) {
  std::ifstream in(path);
  if (!in.is_open()) {
    if (error != nullptr) *error = "cannot open ledger file: " + path;
    return false;
  }
  out = read_ledger(in);
  return true;
}

}  // namespace fedra::obs
