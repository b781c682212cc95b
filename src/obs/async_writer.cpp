#include "obs/async_writer.hpp"

#include <chrono>
#include <cstring>

namespace fedra::obs {

namespace {

constexpr std::uint8_t kFrameRound = 1;
constexpr std::uint8_t kFrameDecision = 2;
constexpr std::uint8_t kFrameFlRound = 3;
constexpr std::size_t kFrameHeader = 5;  // u32 total length + u8 type
// A drain pass hands the sink its lines in one call, or in one call per
// this many bytes when a backlog would make the formatted pass larger.
constexpr std::size_t kSinkChunk = std::size_t{1} << 16;

// --- little-endian scalar put/get (memcpy: alignment-safe, and the repo
// --- only targets little-endian x86-64, so no byte swapping) --------------

template <typename T>
void put_pod(std::vector<std::uint8_t>& out, T v) {
  const std::size_t at = out.size();
  out.resize(at + sizeof(T));
  std::memcpy(out.data() + at, &v, sizeof(T));
}

void put_string(std::vector<std::uint8_t>& out, const std::string& s) {
  put_pod<std::uint32_t>(out, static_cast<std::uint32_t>(s.size()));
  const std::size_t at = out.size();
  out.resize(at + s.size());
  std::memcpy(out.data() + at, s.data(), s.size());
}

void put_doubles(std::vector<std::uint8_t>& out,
                 const std::vector<double>& v) {
  put_pod<std::uint32_t>(out, static_cast<std::uint32_t>(v.size()));
  const std::size_t at = out.size();
  out.resize(at + v.size() * sizeof(double));
  // An empty vector's data() may be null, which memcpy forbids even for
  // zero bytes.
  if (!v.empty()) {
    std::memcpy(out.data() + at, v.data(), v.size() * sizeof(double));
  }
}

struct Cursor {
  const std::uint8_t* p;
  const std::uint8_t* end;

  template <typename T>
  bool get_pod(T& v) {
    if (static_cast<std::size_t>(end - p) < sizeof(T)) return false;
    std::memcpy(&v, p, sizeof(T));
    p += sizeof(T);
    return true;
  }

  bool get_string(std::string& s) {
    std::uint32_t len = 0;
    if (!get_pod(len)) return false;
    if (static_cast<std::size_t>(end - p) < len) return false;
    s.assign(reinterpret_cast<const char*>(p), len);
    p += len;
    return true;
  }

  bool get_doubles(std::vector<double>& v) {
    std::uint32_t count = 0;
    if (!get_pod(count)) return false;
    if (static_cast<std::size_t>(end - p) < count * sizeof(double)) {
      return false;
    }
    v.resize(count);
    if (count > 0) std::memcpy(v.data(), p, count * sizeof(double));
    p += count * sizeof(double);
    return true;
  }
};

std::size_t round_up_pow2(std::size_t v) {
  std::size_t c = 4096;
  while (c < v) c <<= 1;
  return c;
}

}  // namespace

void encode_round_payload(const RoundRecord& r,
                          std::vector<std::uint8_t>& out) {
  out.clear();
  put_pod<std::uint64_t>(out, r.round);
  put_string(out, r.source);
  put_pod(out, r.start_time);
  put_pod(out, r.iteration_time);
  put_pod(out, r.total_energy);
  put_pod(out, r.time_term);
  put_pod(out, r.energy_term);
  put_pod(out, r.cost);
  put_pod(out, r.reward);
  put_pod<std::uint64_t>(out, r.num_scheduled);
  put_pod<std::uint64_t>(out, r.num_completed);
  put_pod<std::uint64_t>(out, r.num_crashes);
  put_pod<std::uint64_t>(out, r.num_dropouts);
  put_pod<std::uint64_t>(out, r.num_timeouts);
  put_pod<std::uint64_t>(out, r.num_upload_failures);
  put_pod<std::uint64_t>(out, r.total_retries);
  put_pod<std::uint64_t>(out, r.devices_omitted);
  put_pod<std::uint32_t>(out, static_cast<std::uint32_t>(r.devices.size()));
  for (const DeviceRoundRecord& d : r.devices) {
    put_pod<std::uint32_t>(out, d.device);
    put_pod<std::uint8_t>(out, d.participated ? 1 : 0);
    put_pod<std::uint8_t>(out, d.completed ? 1 : 0);
    put_string(out, d.failure);
    put_pod<std::uint32_t>(out, d.retries);
    put_pod(out, d.freq_hz);
    put_pod(out, d.compute_time);
    put_pod(out, d.comm_time);
    put_pod(out, d.idle_time);
    put_pod(out, d.compute_energy);
    put_pod(out, d.comm_energy);
    put_pod(out, d.energy);
    put_pod(out, d.avg_bandwidth);
  }
}

bool decode_round_payload(const std::uint8_t* data, std::size_t len,
                          RoundRecord& out) {
  Cursor c{data, data + len};
  std::uint64_t u = 0;
  std::uint32_t n = 0;
  if (!c.get_pod(u)) return false;
  out.round = u;
  if (!c.get_string(out.source)) return false;
  if (!c.get_pod(out.start_time) || !c.get_pod(out.iteration_time) ||
      !c.get_pod(out.total_energy) || !c.get_pod(out.time_term) ||
      !c.get_pod(out.energy_term) || !c.get_pod(out.cost) ||
      !c.get_pod(out.reward)) {
    return false;
  }
  if (!c.get_pod(u)) return false;
  out.num_scheduled = u;
  if (!c.get_pod(u)) return false;
  out.num_completed = u;
  if (!c.get_pod(u)) return false;
  out.num_crashes = u;
  if (!c.get_pod(u)) return false;
  out.num_dropouts = u;
  if (!c.get_pod(u)) return false;
  out.num_timeouts = u;
  if (!c.get_pod(u)) return false;
  out.num_upload_failures = u;
  if (!c.get_pod(u)) return false;
  out.total_retries = u;
  if (!c.get_pod(u)) return false;
  out.devices_omitted = u;
  if (!c.get_pod(n)) return false;
  out.devices.clear();
  out.devices.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    DeviceRoundRecord d;
    std::uint8_t b = 0;
    if (!c.get_pod(d.device)) return false;
    if (!c.get_pod(b)) return false;
    d.participated = b != 0;
    if (!c.get_pod(b)) return false;
    d.completed = b != 0;
    if (!c.get_string(d.failure)) return false;
    if (!c.get_pod(d.retries)) return false;
    if (!c.get_pod(d.freq_hz) || !c.get_pod(d.compute_time) ||
        !c.get_pod(d.comm_time) || !c.get_pod(d.idle_time) ||
        !c.get_pod(d.compute_energy) || !c.get_pod(d.comm_energy) ||
        !c.get_pod(d.energy) || !c.get_pod(d.avg_bandwidth)) {
      return false;
    }
    out.devices.push_back(std::move(d));
  }
  return c.p == c.end;
}

void encode_decision_payload(const DecisionRecord& r,
                             std::vector<std::uint8_t>& out) {
  out.clear();
  put_pod<std::uint64_t>(out, r.round);
  put_string(out, r.source);
  put_pod(out, r.predicted_time);
  put_pod(out, r.predicted_energy);
  put_pod(out, r.predicted_cost);
  put_pod(out, r.realized_time);
  put_pod(out, r.realized_energy);
  put_pod(out, r.realized_cost);
  put_pod(out, r.reward);
  put_doubles(out, r.action);
  put_doubles(out, r.state);
}

bool decode_decision_payload(const std::uint8_t* data, std::size_t len,
                             DecisionRecord& out) {
  Cursor c{data, data + len};
  std::uint64_t u = 0;
  if (!c.get_pod(u)) return false;
  out.round = u;
  if (!c.get_string(out.source)) return false;
  if (!c.get_pod(out.predicted_time) || !c.get_pod(out.predicted_energy) ||
      !c.get_pod(out.predicted_cost) || !c.get_pod(out.realized_time) ||
      !c.get_pod(out.realized_energy) || !c.get_pod(out.realized_cost) ||
      !c.get_pod(out.reward)) {
    return false;
  }
  if (!c.get_doubles(out.action)) return false;
  if (!c.get_doubles(out.state)) return false;
  return c.p == c.end;
}

void encode_fl_round_payload(const FlRoundRecord& r,
                             std::vector<std::uint8_t>& out) {
  out.clear();
  put_pod<std::uint64_t>(out, r.round);
  put_pod(out, r.global_loss);
  put_pod(out, r.global_accuracy);
  put_pod(out, r.mean_client_loss);
  put_pod<std::uint64_t>(out, r.num_participants);
  put_pod<std::uint64_t>(out, r.num_delivered);
}

bool decode_fl_round_payload(const std::uint8_t* data, std::size_t len,
                             FlRoundRecord& out) {
  Cursor c{data, data + len};
  std::uint64_t u = 0;
  if (!c.get_pod(u)) return false;
  out.round = u;
  if (!c.get_pod(out.global_loss) || !c.get_pod(out.global_accuracy) ||
      !c.get_pod(out.mean_client_loss)) {
    return false;
  }
  if (!c.get_pod(u)) return false;
  out.num_participants = u;
  if (!c.get_pod(u)) return false;
  out.num_delivered = u;
  return c.p == c.end;
}

// ---------------------------------------------------------------------------

AsyncLedgerWriter::AsyncLedgerWriter(
    std::size_t ring_bytes, std::function<void(const std::string&)> sink)
    : ring_(round_up_pow2(ring_bytes)),
      mask_(ring_.size() - 1),
      sink_(std::move(sink)) {
  stage_.reserve(ring_.size());
  drainer_ = std::thread([this] { drain_loop(); });
}

AsyncLedgerWriter::~AsyncLedgerWriter() { stop(); }

bool AsyncLedgerWriter::push_frame(std::uint8_t type,
                                   const std::vector<std::uint8_t>& payload) {
  const std::size_t frame = kFrameHeader + payload.size();
  const std::uint64_t head = head_.load(std::memory_order_relaxed);
  const std::uint64_t tail = tail_.load(std::memory_order_acquire);
  if (frame > ring_.size() - static_cast<std::size_t>(head - tail)) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  const auto len32 = static_cast<std::uint32_t>(frame);
  std::uint8_t header[kFrameHeader];
  std::memcpy(header, &len32, sizeof(len32));
  header[4] = type;
  auto write_bytes = [&](std::uint64_t at, const std::uint8_t* src,
                         std::size_t n) {
    const std::size_t pos = static_cast<std::size_t>(at) & mask_;
    const std::size_t first = std::min(n, ring_.size() - pos);
    std::memcpy(ring_.data() + pos, src, first);
    if (first < n) std::memcpy(ring_.data(), src + first, n - first);
  };
  write_bytes(head, header, kFrameHeader);
  write_bytes(head + kFrameHeader, payload.data(), payload.size());
  head_.store(head + frame, std::memory_order_release);
  accepted_.fetch_add(1, std::memory_order_relaxed);
  // Wake the drainer early only under backpressure (ring over half full).
  // Otherwise the 1 ms poll in drain_loop picks frames up in batches, so
  // the hot path pays no futex wake — and on small machines no forced
  // context switch into the JSON formatter — per record.
  if (static_cast<std::size_t>(head + frame - tail) > ring_.size() / 2) {
    data_cv_.notify_one();
  }
  return true;
}

bool AsyncLedgerWriter::enqueue_round(const RoundRecord& r) {
  std::lock_guard<std::mutex> lock(producer_mutex_);
  scratch_.clear();
  encode_round_payload(r, scratch_);
  return push_frame(kFrameRound, scratch_);
}

bool AsyncLedgerWriter::enqueue_decision(const DecisionRecord& r) {
  std::lock_guard<std::mutex> lock(producer_mutex_);
  scratch_.clear();
  encode_decision_payload(r, scratch_);
  return push_frame(kFrameDecision, scratch_);
}

bool AsyncLedgerWriter::enqueue_fl_round(const FlRoundRecord& r) {
  std::lock_guard<std::mutex> lock(producer_mutex_);
  scratch_.clear();
  encode_fl_round_payload(r, scratch_);
  return push_frame(kFrameFlRound, scratch_);
}

void AsyncLedgerWriter::drain_loop() {
  RoundRecord round;
  DecisionRecord decision;
  FlRoundRecord fl_round;
  for (;;) {
    const std::uint64_t head = head_.load(std::memory_order_acquire);
    const std::uint64_t tail = tail_.load(std::memory_order_relaxed);
    if (head == tail) {
      if (stop_.load(std::memory_order_relaxed)) return;
      std::unique_lock<std::mutex> lock(cv_mutex_);
      drained_cv_.notify_all();
      data_cv_.wait_for(lock, std::chrono::milliseconds(1), [&] {
        return head_.load(std::memory_order_acquire) !=
                   tail_.load(std::memory_order_relaxed) ||
               stop_.load(std::memory_order_relaxed);
      });
      continue;
    }
    // Copy the published span into linear staging memory (at most two
    // memcpys across the wrap), format every frame into the reused line
    // buffer, hand it to the sink, then retire the bytes. The tail
    // advances only after the sink has the lines, so head == tail really
    // means "everything accepted is written".
    const auto avail = static_cast<std::size_t>(head - tail);
    stage_.resize(avail);
    const std::size_t pos = static_cast<std::size_t>(tail) & mask_;
    const std::size_t first = std::min(avail, ring_.size() - pos);
    std::memcpy(stage_.data(), ring_.data() + pos, first);
    if (first < avail) {
      std::memcpy(stage_.data() + first, ring_.data(), avail - first);
    }
    std::size_t consumed = 0;
    lines_.clear();
    while (consumed + kFrameHeader <= avail) {
      std::uint32_t frame_len = 0;
      std::memcpy(&frame_len, stage_.data() + consumed, sizeof(frame_len));
      if (frame_len < kFrameHeader || consumed + frame_len > avail) break;
      const std::uint8_t type = stage_[consumed + 4];
      const std::uint8_t* payload = stage_.data() + consumed + kFrameHeader;
      const std::size_t payload_len = frame_len - kFrameHeader;
      bool decoded = false;
      switch (type) {
        case kFrameRound:
          decoded = decode_round_payload(payload, payload_len, round);
          if (decoded) append_record_json(round, lines_);
          break;
        case kFrameDecision:
          decoded = decode_decision_payload(payload, payload_len, decision);
          if (decoded) append_record_json(decision, lines_);
          break;
        case kFrameFlRound:
          decoded = decode_fl_round_payload(payload, payload_len, fl_round);
          if (decoded) append_record_json(fl_round, lines_);
          break;
        default:
          break;  // unknown frame: skip (forward compatibility)
      }
      if (decoded) lines_ += '\n';
      consumed += frame_len;
      if (lines_.size() >= kSinkChunk) {
        sink_(lines_);
        lines_.clear();
      }
    }
    if (!lines_.empty()) sink_(lines_);
    tail_.store(tail + consumed, std::memory_order_release);
    {
      std::lock_guard<std::mutex> lock(cv_mutex_);
      drained_cv_.notify_all();
    }
  }
}

void AsyncLedgerWriter::wait_drained() {
  std::unique_lock<std::mutex> lock(cv_mutex_);
  // Start the last drain now rather than at the drainer's next 1 ms poll.
  data_cv_.notify_one();
  drained_cv_.wait(lock, [&] {
    return head_.load(std::memory_order_acquire) ==
           tail_.load(std::memory_order_acquire);
  });
}

void AsyncLedgerWriter::stop() {
  if (!drainer_.joinable()) return;
  stop_.store(true, std::memory_order_relaxed);
  data_cv_.notify_all();
  drainer_.join();
}

}  // namespace fedra::obs
