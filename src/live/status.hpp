// /statusz plumbing: a process-wide registry of named JSON status
// sources, a watchdog heartbeat, and sweep progress counters.
//
// Subsystems that want to show up in /statusz register a callback that
// appends ONE JSON object (the "{...}" only) describing their current
// state: the thread pool registers its scheduler counters, the serve
// engine its queue/shed/deadline stats, the run ledger its drop counts.
// Registration is construction-time work (mutex + vector) — never on a
// hot path.
//
// The watchdog is one relaxed atomic timestamp: long-running loops call
// watchdog_kick() once per unit of progress (serve batch, sweep arm);
// /healthz reports how stale the last kick is. Kicks are gated on a live
// server actually running, so the cost is one relaxed load when nobody
// is scraping.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "obs/json_min.hpp"
#include "telemetry/span.hpp"

namespace fedra::live {

/// Appends one JSON object ("{...}") describing the source's state.
using StatusFn = std::function<void(std::string&)>;

namespace detail {

struct StatusEntry {
  std::size_t id = 0;
  std::string name;
  StatusFn fn;
};

struct StatusRegistry {
  std::mutex mutex;
  std::vector<StatusEntry> entries;
  std::size_t next_id = 1;
};

/// Immortal (never destroyed): sources may unregister from destructors
/// that run during static teardown.
inline StatusRegistry& status_registry() {
  static StatusRegistry* r = new StatusRegistry();
  return *r;
}

inline std::atomic<int> g_live_servers{0};
inline std::atomic<double> g_watchdog_us{-1.0};
inline std::atomic<std::uint64_t> g_sweep_arms_total{0};
inline std::atomic<std::uint64_t> g_sweep_arms_done{0};

}  // namespace detail

/// Registers a named status source; returns the id for unregistering.
/// Duplicate names are made unique with a ".N" suffix so two pools (or
/// two engines) both stay visible.
inline std::size_t register_status_source(std::string name, StatusFn fn) {
  auto& reg = detail::status_registry();
  std::lock_guard lock(reg.mutex);
  std::string unique = name;
  std::size_t suffix = 2;
  auto taken = [&reg](const std::string& n) {
    for (const auto& e : reg.entries) {
      if (e.name == n) return true;
    }
    return false;
  };
  while (taken(unique)) unique = name + "." + std::to_string(suffix++);
  const std::size_t id = reg.next_id++;
  reg.entries.push_back({id, std::move(unique), std::move(fn)});
  return id;
}

/// Removes a source. Blocks until no collect_status_json is mid-callback
/// (the registry mutex is held across callback invocation), so after this
/// returns the callback will never run again — safe to destroy captures.
inline void unregister_status_source(std::size_t id) {
  auto& reg = detail::status_registry();
  std::lock_guard lock(reg.mutex);
  for (auto it = reg.entries.begin(); it != reg.entries.end(); ++it) {
    if (it->id == id) {
      reg.entries.erase(it);
      return;
    }
  }
}

/// Appends `"name":{...}` members (comma-separated, no surrounding
/// braces) for every registered source, in registration order.
inline void collect_status_json(std::string& out) {
  auto& reg = detail::status_registry();
  std::lock_guard lock(reg.mutex);
  bool first = true;
  for (const auto& e : reg.entries) {
    if (!first) out += ',';
    first = false;
    out += '"';
    obs::json_append_escaped(out, e.name);
    out += "\":";
    e.fn(out);
  }
}

// ---------------------------------------------------------------------------
// Watchdog heartbeat.

/// True while at least one LiveServer is running (kick-site gate).
inline bool live_exporter_active() {
  return detail::g_live_servers.load(std::memory_order_relaxed) > 0;
}

/// Progress heartbeat. One relaxed load when no exporter is running; one
/// clock read + relaxed store when one is.
inline void watchdog_kick() {
  if (live_exporter_active()) {
    detail::g_watchdog_us.store(telemetry::now_us(),
                                std::memory_order_relaxed);
  }
}

/// Seconds since the last kick, or a negative value if never kicked.
inline double watchdog_age_s() {
  const double last = detail::g_watchdog_us.load(std::memory_order_relaxed);
  if (last < 0.0) return -1.0;
  return (telemetry::now_us() - last) / 1e6;
}

// ---------------------------------------------------------------------------
// Sweep arm progress (cumulative across SweepEngine::run calls).

inline void sweep_progress_add_total(std::uint64_t arms) {
  detail::g_sweep_arms_total.fetch_add(arms, std::memory_order_relaxed);
}

inline void sweep_progress_arm_done() {
  detail::g_sweep_arms_done.fetch_add(1, std::memory_order_relaxed);
}

/// {total, done} arms since process start.
inline std::pair<std::uint64_t, std::uint64_t> sweep_progress() {
  return {detail::g_sweep_arms_total.load(std::memory_order_relaxed),
          detail::g_sweep_arms_done.load(std::memory_order_relaxed)};
}

}  // namespace fedra::live
