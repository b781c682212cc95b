// Embedded HTTP exporter: the scrape surface of the live plane.
//
// LiveServer is a deliberately tiny blocking HTTP/1.1 server on POSIX
// sockets — one listener socket on 127.0.0.1, two accept threads,
// Connection: close on every response, no third-party libraries. It
// serves exactly three endpoints:
//
//   GET /metrics   Prometheus text exposition of the telemetry metrics
//                  registry (write_prometheus over one MetricsSnapshot).
//   GET /healthz   JSON liveness: uptime, watchdog staleness. Returns
//                  503 when the watchdog is configured and stale.
//   GET /statusz   JSON snapshot: scrape counters, recorder stats, sweep
//                  arm progress, and every registered status source
//                  (scheduler counters, serve queue/shed/deadline stats,
//                  ledger drop counts). `?recorder=1` appends the flight
//                  recorder's surviving records.
//
// Off by default: nothing in fedra starts a LiveServer unless asked
// (`--live-port` in fedra_cli / bench_serve, or construction in user
// code). Scrapes read snapshots — they never block instrumentation.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

namespace fedra::live {

struct LiveConfig {
  /// TCP port to bind on 127.0.0.1, in [0, 65535]. 0 = ephemeral (read
  /// back via port()).
  int port = 0;
  /// /healthz turns 503 when the last watchdog_kick() is older than this
  /// (seconds). 0 = staleness never fails health. Never-kicked is healthy
  /// (the process may simply not have progress loops instrumented).
  double watchdog_stale_s = 0.0;
};

class LiveServer {
 public:
  explicit LiveServer(LiveConfig config = {});
  ~LiveServer();  ///< stop()s.

  LiveServer(const LiveServer&) = delete;
  LiveServer& operator=(const LiveServer&) = delete;

  /// Binds + listens + spawns the accept pool. Returns false (with the
  /// server stopped) if the port is outside [0, 65535] or the
  /// socket/bind/listen fails. Idempotent.
  bool start();

  /// Closes the listener, wakes the accept threads, joins them. Safe to
  /// call twice; also run by the destructor.
  void stop();

  bool running() const { return running_.load(std::memory_order_acquire); }

  /// The bound port (resolves port 0 to the kernel-chosen ephemeral
  /// port). 0 when not running.
  int port() const { return port_.load(std::memory_order_acquire); }

  /// Total GET requests answered (any endpoint, any status).
  std::uint64_t scrape_count() const {
    return scrapes_.load(std::memory_order_relaxed);
  }

  const LiveConfig& config() const { return config_; }

 private:
  void accept_loop();
  void handle_connection(int fd);
  std::string respond(const std::string& target);

  LiveConfig config_;
  std::atomic<bool> running_{false};
  std::atomic<int> listen_fd_{-1};
  std::atomic<int> port_{0};
  std::atomic<std::uint64_t> scrapes_{0};
  double start_us_ = 0.0;
  std::vector<std::thread> acceptors_;
};

}  // namespace fedra::live
