#include "serve/session.hpp"

#include "util/rng.hpp"

namespace fedra::serve {

SessionManager::SessionManager(InferenceEngine& engine,
                               std::uint64_t base_seed)
    : engine_(engine), base_seed_(base_seed) {}

std::uint64_t SessionManager::open() {
  std::unique_lock lock(table_mu_);
  const std::uint64_t id = next_id_++;
  auto session = std::make_unique<Session>();
  session->info.id = id;
  // Pure hash of (base_seed, id): two SplitMix64 steps mix the pair into
  // a stream seed that is stable across runs and table layouts.
  SplitMix64 mix(base_seed_ ^ (id * 0x9e3779b97f4a7c15ULL));
  session->info.seed = mix.next();
  table_.emplace(id, std::move(session));
  return id;
}

bool SessionManager::close(std::uint64_t id) {
  std::unique_lock lock(table_mu_);
  return table_.erase(id) > 0;
}

std::size_t SessionManager::active() const {
  std::shared_lock lock(table_mu_);
  return table_.size();
}

SessionInfo SessionManager::info(std::uint64_t id) const {
  std::shared_lock lock(table_mu_);
  const auto it = table_.find(id);
  if (it == table_.end()) return {};
  std::lock_guard session_lock(it->second->mu);
  return it->second->info;
}

DecideResult SessionManager::decide(std::uint64_t id,
                                    std::span<const double> state,
                                    double deadline_us) {
  DecideResult out;
  decide(id, state, out, deadline_us);
  return out;
}

void SessionManager::decide(std::uint64_t id, std::span<const double> state,
                            DecideResult& out, double deadline_us) {
  std::shared_lock lock(table_mu_);
  const auto it = table_.find(id);
  if (it == table_.end()) {
    out.status = DecideStatus::kBadRequest;
    out.action.clear();
    out.batch_rows = 0;
    out.queue_wait_us = 0.0;
    return;
  }
  Session& session = *it->second;

  // Held until the engine answers: one in-flight request per session.
  std::unique_lock session_lock(session.mu);
  engine_.decide(state, out, deadline_us);
  if (out.ok()) {
    ++session.info.decisions;
  } else {
    ++session.info.failures;
  }
}

}  // namespace fedra::serve
