// live_probe — end-to-end smoke check for the live observability plane.
//
// Starts an ephemeral LiveServer in-process, populates the telemetry
// registry and the flight recorder with known values, then fetches every
// endpoint through the real TCP client and validates the payloads:
//
//   /metrics            Prometheus text: # HELP / # TYPE lines plus the
//                       seeded counter with its exact value
//   /healthz            JSON, status "ok" (no watchdog configured)
//   /statusz            JSON with scrapes / recorder / sweep members
//   /statusz?recorder=1 JSON whose flight_recorder array holds the
//                       seeded event
//
// Exits 0 only when every check passes; ctest runs it as the `live_probe`
// test in the default, sanitize and tsan suites.
#include <cstdio>
#include <string>

#include "live/flight_recorder.hpp"
#include "live/http_client.hpp"
#include "live/http_exporter.hpp"
#include "obs/json_min.hpp"
#include "telemetry/telemetry.hpp"

namespace {

int g_failures = 0;

void check(bool ok, const char* what) {
  if (ok) {
    std::printf("ok   %s\n", what);
  } else {
    std::printf("FAIL %s\n", what);
    ++g_failures;
  }
}

}  // namespace

int main() {
  using namespace fedra;

  telemetry::Telemetry::enable({});
  telemetry::Telemetry::metrics().counter("probe.rounds").add(42);
  telemetry::Telemetry::metrics().gauge("probe.loss").set(0.125);
  auto hist = telemetry::Telemetry::metrics().histogram("probe.step_s");
  for (int i = 1; i <= 16; ++i) hist.record(0.001 * i);
  live::record_event("probe.event", 7);

  live::LiveConfig cfg;
  cfg.port = 0;  // ephemeral: the probe must not collide with a real run
  live::LiveServer server(cfg);
  check(server.start(), "server starts on an ephemeral port");
  check(server.port() > 0, "bound port resolved");
  std::printf("     live exporter on 127.0.0.1:%d\n", server.port());

  {
    const auto r = live::http_get("127.0.0.1", server.port(), "/metrics");
    check(r.status == 200, "/metrics returns 200");
    check(r.body.find("# HELP probe_rounds") != std::string::npos,
          "/metrics carries # HELP lines");
    check(r.body.find("# TYPE probe_rounds counter") != std::string::npos,
          "/metrics carries # TYPE lines");
    check(r.body.find("probe_rounds 42") != std::string::npos,
          "/metrics carries the seeded counter value");
    check(r.body.find("probe_step_s_bucket{le=") != std::string::npos,
          "/metrics carries cumulative histogram buckets");
  }
  {
    const auto r = live::http_get("127.0.0.1", server.port(), "/healthz");
    obs::JsonValue v;
    check(r.status == 200, "/healthz returns 200");
    check(obs::parse_json(r.body, v) && v.is_object(),
          "/healthz body parses as JSON");
    check(v.get_string("status") == "ok", "/healthz status is ok");
  }
  {
    const auto r = live::http_get("127.0.0.1", server.port(), "/statusz");
    obs::JsonValue v;
    check(r.status == 200, "/statusz returns 200");
    check(obs::parse_json(r.body, v) && v.is_object(),
          "/statusz body parses as JSON");
    check(v.get_number("scrapes", -1.0) >= 1.0,
          "/statusz scrape counter advanced");
    const obs::JsonValue* rec = v.find("recorder");
    check(rec != nullptr && rec->is_object() &&
              rec->get_number("records", 0.0) >= 1.0,
          "/statusz recorder stats present");
  }
  {
    const auto r =
        live::http_get("127.0.0.1", server.port(), "/statusz?recorder=1");
    obs::JsonValue v;
    check(r.status == 200 && obs::parse_json(r.body, v) && v.is_object(),
          "/statusz?recorder=1 parses as JSON");
    const obs::JsonValue* dump = v.find("flight_recorder");
    check(dump != nullptr && dump->is_array() && !dump->array.empty(),
          "flight recorder dump is a non-empty array");
    bool found = false;
    if (dump != nullptr) {
      for (const auto& slot : dump->array) {
        if (slot.get_string("name") == "probe.event" &&
            slot.get_number("arg") == 7.0) {
          found = true;
        }
      }
    }
    check(found, "seeded event appears in the recorder dump");
  }
  {
    const auto r = live::http_get("127.0.0.1", server.port(), "/nope");
    check(r.status == 404, "unknown path returns 404");
  }

  server.stop();
  server.stop();  // idempotent
  check(!server.running(), "server stops cleanly (double-stop safe)");
  {
    const auto r = live::http_get("127.0.0.1", server.port(), "/metrics",
                                  /*timeout_ms=*/250);
    check(r.status == 0, "no listener after stop");
  }

  if (g_failures > 0) {
    std::printf("live_probe: %d check(s) FAILED\n", g_failures);
    return 1;
  }
  std::printf("live_probe: all checks passed\n");
  return 0;
}
