// Asynchronous ledger writer: the training hot path serializes records
// into compact binary frames pushed into a bounded power-of-two byte ring;
// a background drainer thread decodes them and formats the JSONL lines.
//
// Contracts:
//  * enqueue never blocks: when a frame does not fit the ring it is
//    dropped whole and counted (dropped()), so a stalled disk can slow
//    the ledger but never the simulation.
//  * frames are pushed all-or-nothing and the head counter publishes only
//    complete frames, so the drainer always sees a whole number of
//    records — no torn frames inside the ring (torn LINES can still occur
//    if the process dies mid-write; the reader already tolerates those).
//  * each drained line is byte-identical to formatting the record on the
//    producer thread: the drainer decodes back to the record structs and
//    runs the very same append_record_json formatters.
//  * wait_drained() returns only after every accepted frame has been
//    handed to the sink, which is what gives RunLedger::flush() and
//    disable() their flush-at-exit ordering.
//
// Producers may be multiple threads (a short producer-side mutex
// serializes pushes); the drainer is the single consumer, so head/tail
// are monotonic absolute counters with acquire/release publication.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/ledger.hpp"

namespace fedra::obs {

class AsyncLedgerWriter {
 public:
  /// `ring_bytes` is rounded up to a power of two (min 4 KiB). `sink` is
  /// called from the drainer thread with whole JSONL lines, each ending in
  /// '\n', in acceptance order: one call per drain pass, split only when
  /// a pass formats more than 64 KiB.
  AsyncLedgerWriter(std::size_t ring_bytes,
                    std::function<void(const std::string&)> sink);
  ~AsyncLedgerWriter();

  AsyncLedgerWriter(const AsyncLedgerWriter&) = delete;
  AsyncLedgerWriter& operator=(const AsyncLedgerWriter&) = delete;

  /// Each returns true if the record was accepted (it WILL reach the
  /// sink), false if it was dropped for lack of ring space.
  bool enqueue_round(const RoundRecord& r);
  bool enqueue_decision(const DecisionRecord& r);
  bool enqueue_fl_round(const FlRoundRecord& r);

  /// Blocks until every accepted frame has been handed to the sink.
  /// Callers must be quiescent (no concurrent producers) for "drained" to
  /// be meaningful.
  void wait_drained();

  /// Drains remaining frames, then joins the drainer. Idempotent.
  void stop();

  std::uint64_t accepted() const {
    return accepted_.load(std::memory_order_relaxed);
  }
  std::uint64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }

 private:
  bool push_frame(std::uint8_t type, const std::vector<std::uint8_t>& payload);
  void drain_loop();

  std::vector<std::uint8_t> ring_;
  std::size_t mask_ = 0;
  std::atomic<std::uint64_t> head_{0};  ///< bytes published (producers)
  std::atomic<std::uint64_t> tail_{0};  ///< bytes consumed (drainer)
  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> dropped_{0};
  std::atomic<bool> stop_{false};

  std::function<void(const std::string&)> sink_;
  std::mutex producer_mutex_;
  std::vector<std::uint8_t> scratch_;  ///< frame build buffer (producer lock)
  std::mutex cv_mutex_;
  std::condition_variable data_cv_;     ///< producer -> drainer
  std::condition_variable drained_cv_;  ///< drainer -> wait_drained
  std::vector<std::uint8_t> stage_;     ///< drainer-side linear copy
  std::string lines_;                   ///< drainer-side formatted lines
  std::thread drainer_;
};

/// Binary frame payload codecs, exposed for the stress/fuzz tests: encode
/// on the hot thread, decode in the drainer. encode_* REPLACE `out`'s
/// contents. decode_* return false on a truncated/malformed payload
/// (cannot happen through the ring, which only publishes whole frames).
void encode_round_payload(const RoundRecord& r, std::vector<std::uint8_t>& out);
void encode_decision_payload(const DecisionRecord& r,
                             std::vector<std::uint8_t>& out);
void encode_fl_round_payload(const FlRoundRecord& r,
                             std::vector<std::uint8_t>& out);
bool decode_round_payload(const std::uint8_t* data, std::size_t len,
                          RoundRecord& out);
bool decode_decision_payload(const std::uint8_t* data, std::size_t len,
                             DecisionRecord& out);
bool decode_fl_round_payload(const std::uint8_t* data, std::size_t len,
                             FlRoundRecord& out);

}  // namespace fedra::obs
