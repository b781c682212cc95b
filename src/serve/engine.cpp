#include "serve/engine.hpp"

#include <algorithm>

#include "live/status.hpp"
#include "obs/json_min.hpp"
#include "telemetry/telemetry.hpp"
#include "util/contracts.hpp"

namespace fedra::serve {

namespace {
using Clock = std::chrono::steady_clock;

double us_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}
}  // namespace

const char* to_string(DecideStatus status) {
  switch (status) {
    case DecideStatus::kOk:
      return "ok";
    case DecideStatus::kOverloaded:
      return "overloaded";
    case DecideStatus::kDeadlineExceeded:
      return "deadline_exceeded";
    case DecideStatus::kShutdown:
      return "shutdown";
    case DecideStatus::kBadRequest:
      return "bad_request";
  }
  return "unknown";
}

// Stack-owned by the blocked client thread: the batcher is guaranteed to
// complete every admitted request (drain-on-stop), and the client never
// returns before `done`, so the node cannot dangle.
//
// Completion is published under the request's completion SHARD, never the
// engine mutex: with one shared lock, finishing a 64-row batch serializes
// 64 client wakeups through it (each waking client reacquires the engine
// mutex, racing the clients already re-enqueueing) — measured, that convoy
// capped the batched path below 3x. Lock ordering: the batcher only takes
// a shard mutex after releasing mu_; clients never hold both.
struct InferenceEngine::Request {
  std::span<const double> state;
  Clock::time_point enqueued;
  double deadline_us = 0.0;   ///< 0 = none
  std::size_t shard = 0;      ///< completion shard, assigned at admission
  bool done = false;          ///< guarded by shards_[shard].m
  DecideStatus status = DecideStatus::kOk;
  std::vector<double> action;
  std::size_t batch_rows = 0;
  double queue_wait_us = 0.0;
  /// Client thread's trace context at admission: the batcher emits this
  /// request's serve.infer span under it, so one trace id follows the
  /// request decide() -> queue -> batched forward -> completion.
  live::TraceContext trace;
};

InferenceEngine::InferenceEngine(BatchPolicy& policy, ServeConfig config)
    : policy_(policy), config_(config) {
  FEDRA_EXPECTS(config_.max_batch > 0);
  FEDRA_EXPECTS(config_.max_queue_depth > 0);
  batch_.reserve(config_.max_batch);
  // /statusz "serve" source: queue depth + admission/deadline counters.
  // Unregistered first thing in the destructor (the registry mutex is
  // held across callback invocation, so no scrape can race teardown).
  live_status_id_ = live::register_status_source(
      "serve", [this](std::string& out) {
        ServeStats s;
        std::size_t depth = 0;
        {
          std::lock_guard lock(mu_);
          s = stats_;
          depth = queue_.size();
        }
        obs::JsonObject o(out);
        o.u64("queue_depth", depth)
            .u64("admitted", s.admitted)
            .u64("served", s.served)
            .u64("shed", s.shed)
            .u64("expired", s.expired)
            .u64("rejected", s.rejected)
            .u64("batches", s.batches)
            .u64("max_batch_rows", s.max_batch_rows)
            .u64("max_queue_depth", s.max_queue_depth);
        o.close();
      });
  batcher_ = std::thread([this] { batcher_loop(); });
}

InferenceEngine::~InferenceEngine() {
  live::unregister_status_source(live_status_id_);
  stop();
}

DecideResult InferenceEngine::decide(std::span<const double> state,
                                     double deadline_us) {
  DecideResult out;
  decide(state, out, deadline_us);
  return out;
}

void InferenceEngine::decide(std::span<const double> state, DecideResult& out,
                             double deadline_us) {
  // The request's root span: covers admission, the queue wait, and the
  // wakeup. Opening it first means req.trace (captured below) carries
  // this span as parent — the batcher's serve.infer span attaches there.
  telemetry::TraceSpan decide_span("serve.decide");
  out.batch_rows = 0;
  out.queue_wait_us = 0.0;
  Request req;
  req.trace = live::current_trace_context();
  req.action = std::move(out.action);  // recycle the caller's buffer
  req.action.clear();
  if (state.size() != policy_.state_dim()) {
    std::lock_guard lock(mu_);
    ++stats_.rejected;
    out.status = DecideStatus::kBadRequest;
    out.action = std::move(req.action);
    return;
  }
  req.state = state;
  req.deadline_us = deadline_us;

  std::unique_lock lock(mu_);
  if (!accepting_) {
    ++stats_.rejected;
    lock.unlock();
    out.status = DecideStatus::kShutdown;
    out.action = std::move(req.action);
    return;
  }
  if (queue_.size() >= config_.max_queue_depth) {
    ++stats_.shed;
    lock.unlock();
    FEDRA_TELEMETRY_IF {
      static auto shed =
          telemetry::Telemetry::metrics().counter("serve.shed");
      shed.add();
    }
    out.status = DecideStatus::kOverloaded;
    out.action = std::move(req.action);
    return;
  }
  req.shard = static_cast<std::size_t>(stats_.admitted / config_.max_batch) %
              kCompletionShards;
  req.enqueued = Clock::now();
  queue_.push_back(&req);
  ++stats_.admitted;
  stats_.max_queue_depth = std::max(stats_.max_queue_depth, queue_.size());
  const std::size_t depth = queue_.size();
  lock.unlock();
  // The batcher only sleeps when the queue is empty (depth 1 wakes it) or
  // inside the batching window (a full batch cuts the window short); any
  // other notify would be a wasted syscall on the hot path.
  if (depth == 1 || depth >= config_.max_batch) work_cv_.notify_one();

  {
    auto& shard = shards_[req.shard];
    std::unique_lock shard_lock(shard.m);
    shard.cv.wait(shard_lock, [&] { return req.done; });
  }

  out.status = req.status;
  out.action = std::move(req.action);
  out.batch_rows = req.batch_rows;
  out.queue_wait_us = req.queue_wait_us;
}

void InferenceEngine::stop() {
  {
    std::lock_guard lock(mu_);
    if (draining_ && !batcher_.joinable()) return;
    accepting_ = false;
    draining_ = true;
  }
  work_cv_.notify_all();
  if (batcher_.joinable()) batcher_.join();
}

bool InferenceEngine::accepting() const {
  std::lock_guard lock(mu_);
  return accepting_;
}

std::size_t InferenceEngine::queue_depth() const {
  std::lock_guard lock(mu_);
  return queue_.size();
}

ServeStats InferenceEngine::stats() const {
  std::lock_guard lock(mu_);
  return stats_;
}

// Completes one request outside any batch (deadline-expired pops). Must
// NOT hold mu_: the woken client may immediately re-enter decide().
void InferenceEngine::complete(Request* req) {
  auto& shard = shards_[req->shard];
  {
    std::lock_guard shard_lock(shard.m);
    req->done = true;
  }
  shard.cv.notify_all();
}

void InferenceEngine::batcher_loop() {
  namespace tel = fedra::telemetry;
  for (;;) {
    std::unique_lock lock(mu_);
    work_cv_.wait(lock, [&] { return !queue_.empty() || draining_; });
    if (queue_.empty()) {
      if (draining_) return;
      continue;
    }
    if (config_.batch_window_us > 0.0 && !draining_ &&
        queue_.size() < config_.max_batch) {
      work_cv_.wait_for(
          lock,
          std::chrono::duration<double, std::micro>(config_.batch_window_us),
          [&] { return queue_.size() >= config_.max_batch || draining_; });
    }
    const auto popped_at = Clock::now();
    batch_.clear();
    expired_.clear();
    while (!queue_.empty() && batch_.size() < config_.max_batch) {
      Request* req = queue_.front();
      queue_.pop_front();
      req->queue_wait_us = us_between(req->enqueued, popped_at);
      if (req->deadline_us > 0.0 && req->queue_wait_us > req->deadline_us) {
        // Typed backpressure: the wait already blew the budget, so answer
        // now instead of spending a batch row on a stale decision.
        // Completed after the unlock like every other request.
        req->status = DecideStatus::kDeadlineExceeded;
        expired_.push_back(req);
        ++stats_.expired;
        continue;
      }
      batch_.push_back(req);
    }
    const std::size_t depth_after = queue_.size();
    lock.unlock();

    for (Request* req : expired_) complete(req);
    FEDRA_TELEMETRY_IF {
      static auto expired =
          tel::Telemetry::metrics().counter("serve.expired");
      if (!expired_.empty()) expired.add(expired_.size());
    }
    if (batch_.empty()) continue;

    // Gather rows and run ONE forward pass. Requests are completed from
    // row b of the batched output — bit-identical to serving each alone
    // (BatchPolicy's per-row contract).
    const std::size_t rows = batch_.size();
    batch_states_.resize_reuse(rows, policy_.state_dim());
    for (std::size_t b = 0; b < rows; ++b) {
      auto dst = batch_states_.row(b);
      std::copy(batch_[b]->state.begin(), batch_[b]->state.end(),
                dst.begin());
    }
    batch_actions_.resize_reuse(rows, policy_.action_dim());
    const bool tel_on = telemetry::Telemetry::enabled();
    const bool rec_on = live::flight_recorder_enabled();
    const double fwd_t0 = (tel_on || rec_on) ? telemetry::now_us() : 0.0;
    policy_.mean_action_batch(batch_states_, batch_actions_);
    const double fwd_dur =
        (tel_on || rec_on) ? telemetry::now_us() - fwd_t0 : 0.0;
    live::watchdog_kick();

    // Telemetry first: once a request is completed below, its owner may
    // return and the stack node is gone. One serve.infer span per row,
    // emitted under the REQUEST's trace context — this is how a request
    // keeps one trace id across the client thread and the batcher thread.
    if (tel_on || rec_on) {
      for (std::size_t b = 0; b < rows; ++b) {
        Request* req = batch_[b];
        live::ScopedTraceContext request_ctx(req->trace);
        if (rec_on) {
          live::record_flight("serve.infer", fwd_t0, fwd_dur,
                              live::FlightKind::kSpan, rows);
        }
        if (tel_on) {
          telemetry::SpanRecord span;
          span.name = "serve.infer";
          span.start_us = fwd_t0;
          span.dur_us = fwd_dur;
          span.tid = telemetry::current_thread_id();
          span.trace_id = req->trace.trace_id;
          span.parent_span_id = req->trace.span_id;
          span.span_id = live::next_trace_id();
          telemetry::Telemetry::spans().push(span);
        }
      }
      if (tel_on) {
        static auto infer_hist =
            tel::Telemetry::metrics().histogram("serve.infer");
        infer_hist.record(fwd_dur);
      }
    }
    FEDRA_TELEMETRY_IF {
      static auto served =
          tel::Telemetry::metrics().counter("serve.served");
      static auto batch_hist =
          tel::Telemetry::metrics().histogram("serve.batch_rows");
      static auto depth_hist =
          tel::Telemetry::metrics().histogram("serve.queue_depth");
      static auto wait_hist =
          tel::Telemetry::metrics().histogram("serve.queue_wait_us");
      served.add(rows);
      batch_hist.record(static_cast<double>(rows));
      depth_hist.record(static_cast<double>(depth_after));
      for (std::size_t b = 0; b < rows; ++b) {
        wait_hist.record(batch_[b]->queue_wait_us);
      }
    }

    for (std::size_t b = 0; b < rows; ++b) {
      Request* req = batch_[b];
      auto row = batch_actions_.row(b);
      req->action.assign(row.begin(), row.end());
      req->batch_rows = rows;
      req->status = DecideStatus::kOk;
    }
    // Count the batch BEFORE publishing completions: once a client wakes
    // it has a completed decide() in hand, so stats().served must already
    // reflect it (tests read stats right after their last decide returns).
    lock.lock();
    stats_.served += rows;
    ++stats_.batches;
    stats_.max_batch_rows = std::max(stats_.max_batch_rows, rows);
    lock.unlock();

    // Publish per shard run (FIFO pops keep a batch's shards contiguous,
    // so this is at most a couple of lock+notify_all rounds per batch).
    // After a request is marked done its owner may return and the stack
    // node is gone — batch_ pointers must not be dereferenced afterwards.
    std::size_t b = 0;
    while (b < rows) {
      const std::size_t shard = batch_[b]->shard;
      std::size_t e = b;
      {
        std::lock_guard shard_lock(shards_[shard].m);
        for (; e < rows && batch_[e]->shard == shard; ++e) {
          batch_[e]->done = true;
        }
      }
      shards_[shard].cv.notify_all();
      b = e;
    }
  }
}

}  // namespace fedra::serve
