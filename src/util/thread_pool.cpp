#include "util/thread_pool.hpp"

#include <algorithm>
#include <chrono>
#include <string>

#include "live/status.hpp"
#include "obs/json_min.hpp"
#include "telemetry/telemetry.hpp"

namespace fedra {

namespace {

namespace tel = fedra::telemetry;

// Identity of the pool (if any) whose worker loop this thread is running.
// Used to route spawns to the worker's own deque and to let joiners pop
// their own work first. A thread belongs to at most one pool; helping a
// *different* pool (e.g. a sweep-arm worker driving global_pool()) goes
// through the injection/steal paths of that pool.
thread_local ThreadPool* t_pool = nullptr;
thread_local std::size_t t_worker_index = 0;

struct PoolMetrics {
  tel::Counter tasks = tel::Telemetry::metrics().counter("pool.tasks");
  tel::Counter steal_count =
      tel::Telemetry::metrics().counter("pool.steal_count");
  tel::Counter idle_wakeups =
      tel::Telemetry::metrics().counter("pool.idle_wakeups");
  tel::Gauge queue_depth = tel::Telemetry::metrics().gauge("pool.queue_depth");
  tel::Histogram task_us = tel::Telemetry::metrics().histogram("pool.task_us");
};

PoolMetrics& pool_metrics() {
  static PoolMetrics m;
  return m;
}

/// Heap task holding an arbitrary callable (submit / TaskGroup::run).
struct FunctionNode final : detail::TaskNode {
  explicit FunctionNode(std::function<void()> f) : fn(std::move(f)) {}
  void run() override { fn(); }
  std::function<void()> fn;
};

/// Stack-allocated chunk of a parallel_for region; owned by the forking
/// scope, which joins the group before the nodes go out of scope.
struct ChunkNode final : detail::TaskNode {
  const std::function<void(std::size_t, std::size_t)>* body = nullptr;
  std::size_t lo = 0;
  std::size_t hi = 0;
  void run() override { (*body)(lo, hi); }
};

/// Fixed fan-out for parallel_for: chunk boundaries depend only on the
/// range (never on pool size or steal order), which is what keeps every
/// bit-exactness suite invariant across pool sizes {1, 2, 8, ...}. 64 is
/// enough slack for good load balance on wide machines while keeping
/// per-chunk overhead invisible next to µs-scale chunk bodies.
constexpr std::size_t kMaxParallelChunks = 64;

}  // namespace

namespace detail {

// ---------------------------------------------------------------------------
// WorkStealDeque: Chase & Lev, "Dynamic Circular Work-Stealing Deque".
// seq_cst operations on top_/bottom_ stand in for the paper's fences so the
// orderings are visible to ThreadSanitizer (which does not model standalone
// atomic_thread_fence).

WorkStealDeque::WorkStealDeque(std::size_t initial_capacity) {
  std::size_t cap = 1;
  while (cap < initial_capacity) cap <<= 1;
  retired_.push_back(std::make_unique<Ring>(cap));
  ring_.store(retired_.back().get(), std::memory_order_relaxed);
}

WorkStealDeque::~WorkStealDeque() = default;

WorkStealDeque::Ring* WorkStealDeque::grow(Ring* old, std::int64_t top,
                                           std::int64_t bottom) {
  auto bigger = std::make_unique<Ring>(old->capacity * 2);
  for (std::int64_t i = top; i < bottom; ++i) bigger->put(i, old->get(i));
  Ring* raw = bigger.get();
  retired_.push_back(std::move(bigger));  // old ring stays readable for
  ring_.store(raw, std::memory_order_release);  // in-flight thieves
  return raw;
}

void WorkStealDeque::push_bottom(TaskNode* task) {
  const std::int64_t b = bottom_.load(std::memory_order_relaxed);
  const std::int64_t t = top_.load(std::memory_order_acquire);
  Ring* ring = ring_.load(std::memory_order_relaxed);
  if (b - t >= static_cast<std::int64_t>(ring->capacity)) {
    ring = grow(ring, t, b);
  }
  ring->put(b, task);
  bottom_.store(b + 1, std::memory_order_seq_cst);
}

TaskNode* WorkStealDeque::pop_bottom() {
  const std::int64_t b = bottom_.load(std::memory_order_relaxed) - 1;
  Ring* ring = ring_.load(std::memory_order_relaxed);
  bottom_.store(b, std::memory_order_seq_cst);
  std::int64_t t = top_.load(std::memory_order_seq_cst);
  if (t > b) {
    bottom_.store(b + 1, std::memory_order_seq_cst);  // was empty; restore
    return nullptr;
  }
  TaskNode* task = ring->get(b);
  if (t == b) {
    // Last element: race the thieves for it via the CAS on top_.
    if (!top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst)) {
      task = nullptr;  // a thief won
    }
    bottom_.store(b + 1, std::memory_order_seq_cst);
  }
  return task;
}

TaskNode* WorkStealDeque::steal_top() {
  std::int64_t t = top_.load(std::memory_order_seq_cst);
  const std::int64_t b = bottom_.load(std::memory_order_seq_cst);
  if (t >= b) return nullptr;
  Ring* ring = ring_.load(std::memory_order_acquire);
  TaskNode* task = ring->get(t);
  if (!top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst)) {
    return nullptr;  // lost the race; the winner owns the task
  }
  return task;
}

// ---------------------------------------------------------------------------
// TaskGroupBase

TaskGroupBase::~TaskGroupBase() {
  // Defensive join: forked tasks may reference state in the enclosing
  // scope, so they must finish before this destructor returns even if the
  // scope is unwinding past wait(). Errors are swallowed here; wait() is
  // the reporting channel.
  while (pending_.load(std::memory_order_acquire) != 0) {
    if (pool_.help_one()) continue;
    std::unique_lock lock(mutex_);
    done_cv_.wait_for(lock, std::chrono::microseconds(200), [this] {
      return pending_.load(std::memory_order_acquire) == 0;
    });
  }
}

void TaskGroupBase::wait() {
  for (;;) {
    if (pending_.load(std::memory_order_acquire) == 0) break;
    // Join by stealing: execute any pending pool task (not just this
    // group's) instead of blocking — work-conserving, and the only way a
    // 1-worker pool can finish nested groups.
    if (pool_.help_one()) continue;
    std::unique_lock lock(mutex_);
    if (pending_.load(std::memory_order_acquire) == 0) break;
    // Timed wait: a completion notify ends it early; the timeout re-arms
    // helping in case new stealable work appeared without a wakeup.
    done_cv_.wait_for(lock, std::chrono::microseconds(200), [this] {
      return pending_.load(std::memory_order_acquire) == 0;
    });
  }
  std::lock_guard lock(mutex_);
  if (error_) {
    std::exception_ptr e = error_;
    error_ = nullptr;
    std::rethrow_exception(e);
  }
}

void TaskGroupBase::finish_one() noexcept {
  // The decrement happens while holding mutex_: once a waiter observes
  // pending_ == 0 and acquires the mutex, every finisher has released it
  // and will never touch this group again — safe to destroy.
  std::lock_guard lock(mutex_);
  if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    done_cv_.notify_all();
  }
}

void TaskGroupBase::capture_exception() noexcept {
  std::lock_guard lock(mutex_);
  if (!error_) error_ = std::current_exception();
}

}  // namespace detail

void TaskGroup::run(std::function<void()> fn) {
  auto* node = new FunctionNode(std::move(fn));
  node->group = this;
  node->owns_self = true;
  pool_.spawn(node);
}

// ---------------------------------------------------------------------------
// ThreadPool

struct ThreadPool::Worker {
  detail::WorkStealDeque deque;
  std::thread thread;
  std::atomic<std::uint64_t> executed{0};
  tel::Counter executed_counter;  ///< bound lazily once telemetry is on
  bool counter_bound = false;     ///< worker-thread-local use only
};

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.push_back(std::make_unique<Worker>());
  }
  // Start threads only after workers_ is fully populated: workers scan the
  // whole vector when stealing.
  for (std::size_t i = 0; i < threads; ++i) {
    workers_[i]->thread = std::thread([this, i] { worker_loop(i); });
  }
  FEDRA_ENSURES(!workers_.empty());
  // /statusz scheduler counters. The callback reads only relaxed atomics;
  // the registry mutex is held across invocation, so unregistering in the
  // destructor (before joining) makes dangling-`this` impossible.
  live_status_id_ = live::register_status_source(
      "pool", [this](std::string& out) {
        obs::JsonObject o(out);
        o.u64("threads", size())
            .u64("pending", pending())
            .u64("steals", steal_count())
            .u64("idle_wakeups", idle_wakeups());
        o.close();
      });
}

ThreadPool::~ThreadPool() {
  live::unregister_status_source(live_status_id_);
  stopping_.store(true, std::memory_order_seq_cst);
  epoch_.fetch_add(1, std::memory_order_seq_cst);
  {
    // Empty critical section: a worker between its epoch re-check and
    // cv.wait holds the lock, so this store/notify cannot slip in between.
    std::lock_guard lock(sleep_mutex_);
  }
  sleep_cv_.notify_all();
  for (auto& w : workers_) {
    if (w->thread.joinable()) w->thread.join();
  }
}

std::uint64_t ThreadPool::worker_tasks(std::size_t i) const {
  FEDRA_EXPECTS(i < workers_.size());
  return workers_[i]->executed.load(std::memory_order_relaxed);
}

void ThreadPool::spawn_function(std::function<void()> fn,
                                detail::TaskGroupBase* group) {
  auto* node = new FunctionNode(std::move(fn));
  node->group = group;
  node->owns_self = true;
  spawn(node);
}

void ThreadPool::spawn(detail::TaskNode* task) {
  task->ctx = live::current_trace_context();
  if (t_pool == this) {
    if (task->group) task->group->register_spawn();
    queued_.fetch_add(1, std::memory_order_relaxed);
    workers_[t_worker_index]->deque.push_bottom(task);
  } else {
    std::lock_guard lock(inject_mutex_);
    FEDRA_EXPECTS(!stopping_.load(std::memory_order_relaxed));
    if (task->group) task->group->register_spawn();
    queued_.fetch_add(1, std::memory_order_relaxed);
    injected_.push_back(task);
  }
  if (telemetry::Telemetry::enabled()) {
    pool_metrics().queue_depth.set(
        static_cast<double>(queued_.load(std::memory_order_relaxed)));
  }
  signal_work();
}

void ThreadPool::signal_work() {
  epoch_.fetch_add(1, std::memory_order_seq_cst);
  if (sleepers_.load(std::memory_order_seq_cst) > 0) {
    std::lock_guard lock(sleep_mutex_);
    sleep_cv_.notify_one();
  }
}

detail::TaskNode* ThreadPool::pop_injected() {
  std::lock_guard lock(inject_mutex_);
  if (injected_.empty()) return nullptr;
  detail::TaskNode* task = injected_.front();
  injected_.pop_front();
  return task;
}

detail::TaskNode* ThreadPool::try_acquire(std::size_t self_index,
                                          bool is_worker) {
  if (is_worker) {
    if (detail::TaskNode* t = workers_[self_index]->deque.pop_bottom()) {
      return t;
    }
  }
  if (detail::TaskNode* t = pop_injected()) return t;
  const std::size_t w = workers_.size();
  for (std::size_t k = 0; k < w; ++k) {
    const std::size_t victim = is_worker ? (self_index + 1 + k) % w : k;
    if (is_worker && victim == self_index) continue;
    if (detail::TaskNode* t = workers_[victim]->deque.steal_top()) {
      steals_.fetch_add(1, std::memory_order_relaxed);
      if (telemetry::Telemetry::enabled()) {
        pool_metrics().steal_count.add();
      }
      return t;
    }
  }
  return nullptr;
}

void ThreadPool::execute(detail::TaskNode* task) {
  queued_.fetch_sub(1, std::memory_order_relaxed);
  detail::TaskGroupBase* group = task->group;
  const bool owns_self = task->owns_self;
  const bool timed = telemetry::Telemetry::enabled();
  const auto start =
      timed ? std::chrono::steady_clock::now() : std::chrono::steady_clock::time_point{};
  {
    // Run under the spawner's trace context so spans opened by the task
    // parent correctly even after a steal; restored before accounting.
    live::ScopedTraceContext trace_scope(task->ctx);
    if (group) {
      try {
        task->run();
      } catch (...) {
        group->capture_exception();
      }
    } else {
      // Group-less tasks come from submit(); the packaged_task captures
      // any exception into the future.
      task->run();
    }
  }
  live::watchdog_kick();
  if (timed) {
    auto& m = pool_metrics();
    m.task_us.record(std::chrono::duration<double, std::micro>(
                         std::chrono::steady_clock::now() - start)
                         .count());
    m.tasks.add();
  }
  if (t_pool == this) {
    Worker& self = *workers_[t_worker_index];
    self.executed.fetch_add(1, std::memory_order_relaxed);
    if (timed) {
      if (!self.counter_bound) {
        self.executed_counter = tel::Telemetry::metrics().counter(
            "pool.worker." + std::to_string(t_worker_index) + ".tasks");
        self.counter_bound = true;
      }
      self.executed_counter.add();
    }
  }
  if (owns_self) delete task;
  // finish_one() last: for stack-owned chunk nodes the joining scope may
  // free the node as soon as the group count hits zero.
  if (group) group->finish_one();
}

bool ThreadPool::help_one() {
  const bool is_worker = (t_pool == this);
  detail::TaskNode* task =
      try_acquire(is_worker ? t_worker_index : 0, is_worker);
  if (task == nullptr) return false;
  execute(task);
  return true;
}

void ThreadPool::worker_loop(std::size_t index) {
  t_pool = this;
  t_worker_index = index;
  for (;;) {
    const std::uint64_t epoch = epoch_.load(std::memory_order_seq_cst);
    if (detail::TaskNode* task = try_acquire(index, /*is_worker=*/true)) {
      execute(task);
      continue;
    }
    if (stopping_.load(std::memory_order_seq_cst)) return;
    std::unique_lock lock(sleep_mutex_);
    sleepers_.fetch_add(1, std::memory_order_seq_cst);
    if (epoch_.load(std::memory_order_seq_cst) == epoch &&
        !stopping_.load(std::memory_order_seq_cst)) {
      // Timed wait is a belt-and-braces backstop; the epoch re-check above
      // already closes the publish-vs-sleep race.
      sleep_cv_.wait_for(lock, std::chrono::milliseconds(10));
      idle_wakeups_.fetch_add(1, std::memory_order_relaxed);
      if (telemetry::Telemetry::enabled()) {
        pool_metrics().idle_wakeups.add();
      }
    }
    sleepers_.fetch_sub(1, std::memory_order_seq_cst);
  }
}

void ThreadPool::parallel_for_chunks(
    std::size_t begin, std::size_t end,
    const std::function<void(std::size_t, std::size_t)>& body) {
  FEDRA_EXPECTS(begin <= end);
  const std::size_t n = end - begin;
  if (n == 0) return;
  const std::size_t chunks = std::min(n, kMaxParallelChunks);
  if (chunks <= 1) {
    body(begin, end);
    return;
  }
  const std::size_t step = (n + chunks - 1) / chunks;
  TaskGroup group(*this);
  // Chunk nodes live on this stack frame; the group is joined (wait or the
  // destructor's defensive join) before they go out of scope.
  std::vector<ChunkNode> nodes(chunks - 1);
  std::size_t lo = begin + step;  // first chunk runs on the calling thread
  std::size_t k = 0;
  while (lo < end) {
    const std::size_t hi = std::min(lo + step, end);
    ChunkNode& node = nodes[k++];
    node.body = &body;
    node.lo = lo;
    node.hi = hi;
    node.group = &group;
    node.owns_self = false;
    spawn(&node);
    lo = hi;
  }
  std::exception_ptr first;
  try {
    body(begin, std::min(begin + step, end));
  } catch (...) {
    first = std::current_exception();
  }
  try {
    group.wait();
  } catch (...) {
    if (!first) first = std::current_exception();
  }
  if (first) std::rethrow_exception(first);
}

void ThreadPool::parallel_for(std::size_t begin, std::size_t end,
                              const std::function<void(std::size_t)>& body) {
  parallel_for_chunks(begin, end,
                      [&body](std::size_t lo, std::size_t hi) {
                        for (std::size_t i = lo; i < hi; ++i) body(i);
                      });
}

ThreadPool& global_pool() {
  static ThreadPool pool;  // immutable after construction; tasks own state
  return pool;
}

}  // namespace fedra
