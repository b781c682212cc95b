#include "live/http_exporter.hpp"

#include <cstring>
#include <sstream>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include "live/flight_recorder.hpp"
#include "live/status.hpp"
#include "obs/json_min.hpp"
#include "telemetry/telemetry.hpp"

namespace fedra::live {

namespace {

/// Threads that accept and serve connections. Scrapes are rare and cheap;
/// two cover a scraper plus a human curl without queueing.
constexpr int kAcceptThreads = 2;

std::string http_response(int status, const char* reason,
                          const char* content_type, const std::string& body) {
  std::string out = "HTTP/1.1 " + std::to_string(status) + ' ' + reason +
                    "\r\nContent-Type: " + content_type +
                    "\r\nContent-Length: " + std::to_string(body.size()) +
                    "\r\nConnection: close\r\n\r\n";
  out += body;
  return out;
}

/// First request line up to the blank line; 8 KiB cap (a GET of three
/// short paths never comes close).
bool read_request(int fd, std::string& out) {
  char buf[1024];
  out.clear();
  while (out.size() < 8192) {
    const ::ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) return !out.empty();
    out.append(buf, static_cast<std::size_t>(n));
    if (out.find("\r\n\r\n") != std::string::npos ||
        out.find("\n\n") != std::string::npos) {
      return true;
    }
  }
  return true;
}

}  // namespace

LiveServer::LiveServer(LiveConfig config) : config_(config) {}

LiveServer::~LiveServer() { stop(); }

bool LiveServer::start() {
  if (running_.load(std::memory_order_acquire)) return true;
  if (config_.port < 0 || config_.port > 65535) return false;

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return false;
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);  // never exposed off-host
  addr.sin_port = htons(static_cast<std::uint16_t>(config_.port));
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, 16) != 0) {
    ::close(fd);
    return false;
  }
  sockaddr_in bound;
  socklen_t len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) == 0) {
    port_.store(static_cast<int>(ntohs(bound.sin_port)),
                std::memory_order_release);
  }

  start_us_ = telemetry::now_us();
  listen_fd_.store(fd, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  detail::g_live_servers.fetch_add(1, std::memory_order_relaxed);
  acceptors_.reserve(kAcceptThreads);
  for (int i = 0; i < kAcceptThreads; ++i) {
    acceptors_.emplace_back([this] { accept_loop(); });
  }
  return true;
}

void LiveServer::stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  detail::g_live_servers.fetch_sub(1, std::memory_order_relaxed);
  const int fd = listen_fd_.exchange(-1, std::memory_order_acq_rel);
  if (fd >= 0) {
    // shutdown() wakes every thread blocked in accept() with an error;
    // close() alone does not reliably do that on Linux.
    ::shutdown(fd, SHUT_RDWR);
    ::close(fd);
  }
  for (auto& t : acceptors_) {
    if (t.joinable()) t.join();
  }
  acceptors_.clear();
  port_.store(0, std::memory_order_release);
}

void LiveServer::accept_loop() {
  for (;;) {
    const int lfd = listen_fd_.load(std::memory_order_acquire);
    if (lfd < 0) return;
    const int conn = ::accept(lfd, nullptr, nullptr);
    if (conn < 0) {
      if (!running_.load(std::memory_order_acquire)) return;
      continue;  // transient (EINTR / aborted connection)
    }
    handle_connection(conn);
    ::close(conn);
  }
}

void LiveServer::handle_connection(int fd) {
  // Bound the read so a stuck client cannot pin an accept thread forever.
  timeval tv;
  tv.tv_sec = 2;
  tv.tv_usec = 0;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));

  std::string request;
  if (!read_request(fd, request)) return;

  // "GET /path?query HTTP/1.1"
  std::string response;
  const std::size_t sp1 = request.find(' ');
  const std::size_t sp2 =
      sp1 == std::string::npos ? std::string::npos : request.find(' ', sp1 + 1);
  if (sp1 == std::string::npos || sp2 == std::string::npos) {
    response = http_response(400, "Bad Request", "text/plain",
                             "malformed request line\n");
  } else if (request.compare(0, sp1, "GET") != 0) {
    response = http_response(405, "Method Not Allowed", "text/plain",
                             "only GET is served\n");
  } else {
    response = respond(request.substr(sp1 + 1, sp2 - sp1 - 1));
  }

  std::size_t off = 0;
  while (off < response.size()) {
    const ::ssize_t n =
        ::send(fd, response.data() + off, response.size() - off, MSG_NOSIGNAL);
    if (n <= 0) return;
    off += static_cast<std::size_t>(n);
  }
}

std::string LiveServer::respond(const std::string& target) {
  scrapes_.fetch_add(1, std::memory_order_relaxed);
  // Mirror into the registry so scrape counts appear in flushed JSONL
  // runs (`fedra_report phases`' `== live ==` section) and in /metrics.
  static telemetry::Counter scrape_counter =
      telemetry::Telemetry::metrics().counter("live.http.scrapes");
  scrape_counter.add();

  const std::size_t q = target.find('?');
  const std::string path = target.substr(0, q);
  const std::string query =
      q == std::string::npos ? std::string() : target.substr(q + 1);

  if (path == "/metrics") {
    static telemetry::Gauge dropped_gauge =
        telemetry::Telemetry::metrics().gauge("live.recorder.dropped");
    dropped_gauge.set(static_cast<double>(flight_recorder_stats().dropped));
    std::ostringstream os;
    telemetry::write_prometheus(os,
                                telemetry::Telemetry::metrics().snapshot());
    return http_response(200, "OK", "text/plain; version=0.0.4", os.str());
  }

  if (path == "/healthz") {
    const double age = watchdog_age_s();
    const bool stale = config_.watchdog_stale_s > 0.0 && age >= 0.0 &&
                       age > config_.watchdog_stale_s;
    std::string body;
    obs::JsonObject o(body);
    o.str("status", stale ? "stale" : "ok")
        .num("uptime_s", (telemetry::now_us() - start_us_) / 1e6)
        .num("watchdog_age_s", age)
        .num("watchdog_stale_s", config_.watchdog_stale_s);
    o.close();
    return stale ? http_response(503, "Service Unavailable",
                                 "application/json", body)
                 : http_response(200, "OK", "application/json", body);
  }

  if (path == "/statusz") {
    const FlightRecorderStats rec = flight_recorder_stats();
    const auto [arms_total, arms_done] = sweep_progress();
    std::string body;
    obs::JsonObject o(body);
    o.u64("scrapes", scrapes_.load(std::memory_order_relaxed))
        .num("uptime_s", (telemetry::now_us() - start_us_) / 1e6)
        .num("watchdog_age_s", watchdog_age_s())
        .flag("telemetry_enabled", telemetry::Telemetry::enabled());
    obs::JsonObject recorder(o.member("recorder"));
    recorder.flag("enabled", flight_recorder_enabled())
        .u64("threads", rec.threads)
        .u64("records", rec.records)
        .u64("dropped", rec.dropped);
    recorder.close();
    obs::JsonObject sweep(o.member("sweep"));
    sweep.u64("arms_total", arms_total).u64("arms_done", arms_done);
    sweep.close();
    std::string& sources = o.member("sources");
    sources += '{';
    collect_status_json(sources);
    sources += '}';
    if (query.find("recorder=1") != std::string::npos) {
      append_flight_recorder_json(o.member("flight_recorder"));
    }
    o.close();
    return http_response(200, "OK", "application/json", body);
  }

  return http_response(404, "Not Found", "text/plain",
                       "endpoints: /metrics /healthz /statusz\n");
}

}  // namespace fedra::live
