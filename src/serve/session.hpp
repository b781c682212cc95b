// Session multiplexing for the serving engine: one engine (one policy)
// answers many independent federations, each with its own per-session
// state — a seeded deterministic RNG stream and decision counters. States
// reach the policy as the caller built them: the paper's controller is
// trained on raw scaled states, so serving stays bit-compatible with
// DrlController.
//
// Determinism rules:
//   * session ids are assigned sequentially from 1 in open() order, so a
//     replayed open/close script yields identical ids;
//   * each session's RNG seed is a pure SplitMix64 hash of
//     (base_seed, id) — independent of wall clock, thread interleaving,
//     or how many decisions other sessions have made. The seed is the
//     hook later work (the TCP worker substrate) uses to keep per-session
//     scheduling draws reproducible;
//   * the engine's per-row bit-exactness means a session's decision
//     depends only on its own state sequence, never on which other
//     sessions' requests shared a batch.
//
// Thread safety: the table is guarded by a shared mutex (decide() takes
// it shared), each session by its own mutex — two federations never
// serialize against each other on the session layer, only inside the
// engine's queue.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <span>
#include <unordered_map>

#include "serve/engine.hpp"

namespace fedra::serve {

struct SessionInfo {
  std::uint64_t id = 0;
  std::uint64_t seed = 0;       ///< derived, deterministic in (base, id)
  std::uint64_t decisions = 0;  ///< kOk results returned
  std::uint64_t failures = 0;   ///< shed / expired / rejected results
};

class SessionManager {
 public:
  /// Non-owning: `engine` must outlive the manager.
  SessionManager(InferenceEngine& engine, std::uint64_t base_seed = 0);

  InferenceEngine& engine() { return engine_; }

  /// Opens a session; returns its id (sequential from 1).
  std::uint64_t open();

  /// Closes a session; false if the id is unknown.
  bool close(std::uint64_t id);

  std::size_t active() const;

  /// Info snapshot; id 0 in the result marks an unknown session.
  SessionInfo info(std::uint64_t id) const;

  /// Decide through the session: rides the engine's batcher and counts
  /// the outcome. Unknown ids fail with kBadRequest without touching the
  /// engine.
  DecideResult decide(std::uint64_t id, std::span<const double> state,
                      double deadline_us = 0.0);

  /// Capacity-reusing overload (see InferenceEngine::decide).
  void decide(std::uint64_t id, std::span<const double> state,
              DecideResult& out, double deadline_us = 0.0);

 private:
  struct Session {
    SessionInfo info;
    std::mutex mu;  ///< serializes this session's decides
  };

  InferenceEngine& engine_;
  std::uint64_t base_seed_;
  mutable std::shared_mutex table_mu_;
  std::unordered_map<std::uint64_t, std::unique_ptr<Session>> table_;
  std::uint64_t next_id_ = 1;
};

}  // namespace fedra::serve
