// Batched controller-as-a-service inference engine (ROADMAP item 4a).
//
// Many concurrent federations issue decide() calls against one policy; a
// single policy instance is not thread-safe, so the naive service is a
// mutex around mean_action — one state at a time, and the PR 4 blocked
// GEMM kernels never see batch > 1. InferenceEngine instead runs a
// request queue + micro-batcher:
//
//   client threads --decide()--> bounded queue --pop<=max_batch--+
//                                                                |
//        results <-- per-request wakeup <-- mean_action_batch <--+
//                                           (one N x S forward)
//
// Admission control and backpressure:
//   * queue depth is bounded: a decide() arriving at a full queue is shed
//     immediately with DecideStatus::kOverloaded (the caller falls back,
//     e.g. to its previous action) instead of growing latency unboundedly;
//   * each request carries a deadline (0 = none): if its queue wait
//     exceeds it by the time the batcher pops it, the request completes
//     with kDeadlineExceeded and never occupies a batch row;
//   * stop() drains: new arrivals are refused with kShutdown, everything
//     already admitted is still served, then the batcher exits — no
//     request is ever left unanswered (clients block until completion,
//     which is what makes stack-owned request nodes safe).
//
// Batching is greedy by default: the batcher pops whatever is queued (up
// to max_batch) and runs it immediately — no timer delay, so an idle
// engine adds one queue hop of latency while a loaded engine naturally
// coalesces deep batches. ServeConfig::batch_window_us optionally waits
// for a full batch (bounded by the window) before firing. Determinism:
// per-row bit-exactness of BatchPolicy means a result never depends on
// batch composition or arrival order.
//
// Telemetry (when enabled): serve.decide_us / serve.batch_rows /
// serve.queue_depth histograms and serve.{admitted,served,shed,expired}
// counters. An always-on ServeStats snapshot (plain counters under the
// queue lock) backs tests and bench_serve without telemetry.
#pragma once

#include <array>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "serve/batch_policy.hpp"
#include "tensor/matrix.hpp"

namespace fedra::serve {

enum class DecideStatus : std::uint8_t {
  kOk = 0,
  kOverloaded,         ///< shed at admission: queue was at max_queue_depth
  kDeadlineExceeded,   ///< queue wait exceeded the request's deadline
  kShutdown,           ///< engine stopped (or stopping) before admission
  kBadRequest,         ///< state size != policy state_dim
};

const char* to_string(DecideStatus status);

struct ServeConfig {
  /// Max rows coalesced into one forward pass.
  std::size_t max_batch = 64;
  /// Admission bound: decide() sheds (kOverloaded) beyond this many
  /// queued-but-unserved requests.
  std::size_t max_queue_depth = 1024;
  /// Micro-batching window: after work arrives, wait up to this long for
  /// the queue to reach max_batch before firing the forward pass. 0
  /// (default) = greedy — pop whatever is queued immediately. A small
  /// window trades one queue-hop of latency for full batches; under high
  /// offered load on few cores it also yields the batcher's timeslice to
  /// the threads still enqueueing.
  double batch_window_us = 0.0;
};

struct DecideResult {
  DecideStatus status = DecideStatus::kShutdown;
  std::vector<double> action;   ///< filled iff status == kOk
  std::size_t batch_rows = 0;   ///< size of the coalesced batch (kOk)
  double queue_wait_us = 0.0;   ///< admission -> batcher pop
  bool ok() const { return status == DecideStatus::kOk; }
};

/// Monotonic counters since construction (snapshot under the queue lock).
struct ServeStats {
  std::uint64_t admitted = 0;   ///< requests accepted into the queue
  std::uint64_t served = 0;     ///< completed kOk
  std::uint64_t shed = 0;       ///< refused kOverloaded at admission
  std::uint64_t expired = 0;    ///< completed kDeadlineExceeded
  std::uint64_t rejected = 0;   ///< refused kShutdown / kBadRequest
  std::uint64_t batches = 0;    ///< forward passes run
  std::size_t max_batch_rows = 0;   ///< deepest batch observed
  std::size_t max_queue_depth = 0;  ///< deepest queue observed
};

class InferenceEngine {
 public:
  /// Non-owning: `policy` must outlive the engine. Spawns the batcher
  /// thread immediately.
  InferenceEngine(BatchPolicy& policy, ServeConfig config);

  /// stop()s and joins the batcher.
  ~InferenceEngine();

  InferenceEngine(const InferenceEngine&) = delete;
  InferenceEngine& operator=(const InferenceEngine&) = delete;

  const ServeConfig& config() const { return config_; }
  std::size_t state_dim() const { return policy_.state_dim(); }
  std::size_t action_dim() const { return policy_.action_dim(); }

  /// Blocking decide: admits the request (or refuses immediately) and
  /// waits until the batcher completes it. `deadline_us` bounds the
  /// request's queue wait in microseconds; 0 means no deadline.
  DecideResult decide(std::span<const double> state,
                      double deadline_us = 0.0);

  /// Capacity-reusing overload: `out.action`'s buffer is recycled for the
  /// result, so a caller looping decide() performs zero heap allocations
  /// per call in steady state.
  void decide(std::span<const double> state, DecideResult& out,
              double deadline_us = 0.0);

  /// Refuses new work, serves everything already admitted, then stops the
  /// batcher. Idempotent; also run by the destructor.
  void stop();

  bool accepting() const;
  /// Queued-but-unserved requests right now (racy by nature).
  std::size_t queue_depth() const;
  ServeStats stats() const;

 private:
  struct Request;
  void batcher_loop();
  void complete(Request* req);

  BatchPolicy& policy_;
  ServeConfig config_;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;
  std::deque<Request*> queue_;
  bool accepting_ = true;
  bool draining_ = false;
  ServeStats stats_;

  // Completion wakeups are SHARDED: consecutive admissions (ticket /
  // max_batch) share a shard, the batcher publishes a whole batch with one
  // notify_all per distinct shard (a batch spans at most two tickets'
  // worth of FIFO pops) instead of one futex syscall per request. On a
  // small machine those per-request wakes were the dominant per-decide
  // cost of the batched path.
  struct CompletionShard {
    std::mutex m;
    std::condition_variable cv;
  };
  static constexpr std::size_t kCompletionShards = 4;
  std::array<CompletionShard, kCompletionShards> shards_;

  // Batcher-owned scratch (touched only by the batcher thread): request
  // rows are gathered here so the steady state performs zero tensor-heap
  // allocations once capacities cover max_batch.
  Matrix batch_states_;
  Matrix batch_actions_;
  std::vector<Request*> batch_;
  std::vector<Request*> expired_;  ///< deadline-blown pops, completed
                                   ///< after the queue lock is released

  std::size_t live_status_id_ = 0;  ///< /statusz "serve" source handle

  std::thread batcher_;  ///< last member: starts after everything above
};

}  // namespace fedra::serve
