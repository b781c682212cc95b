// High-level checkpoint entry points: a full snapshot of the stateful
// experiment driver (the offline DRL trainer), built from the component
// codecs in state.hpp on top of the container format in format.hpp.
//
// The restore target is a RECONSTRUCTED trainer: the caller rebuilds it
// from the same experiment config (same topology, seeds and traces), then
// restore_trainer overwrites every piece of mutable state so the resumed
// run continues bit-exactly — model parameters, optimizer moments, RNG
// stream positions, mid-fill rollout buffer, simulator clock and episode
// cursor all carry across. A topology difference (different device
// count, network shape, buffer capacity...) is rejected with
// CkptError(kStateMismatch).
#pragma once

#include <cstddef>
#include <map>
#include <string>

#include "ckpt/format.hpp"
#include "core/offline_trainer.hpp"

namespace fedra::ckpt {

/// Free-form run metadata stored alongside the state (episode stats,
/// config fingerprints...). Doubles only, so the "meta" section stays
/// trivially inspectable.
using Meta = std::map<std::string, double>;

/// Section names used by the trainer snapshot (ckpt_inspect shows these).
inline constexpr const char* kMetaSection = "meta";
inline constexpr const char* kTrainerSection = "trainer";
inline constexpr const char* kRolloutSection = "rollout";
inline constexpr const char* kEnvSection = "env";

/// Snapshots the full trainer state to `path` (atomically).
/// `next_episode` is the index of the first episode a resumed run should
/// execute — it round-trips through restore_trainer's return value.
void save_trainer(const std::string& path, OfflineTrainer& trainer,
                  std::size_t next_episode, const Meta& meta = {});

/// Restores a save_trainer snapshot into a freshly-built trainer of the
/// same configuration; returns the stored next_episode. Throws CkptError
/// on any integrity or compatibility failure.
std::size_t restore_trainer(const std::string& path, OfflineTrainer& trainer);

/// Reads just the "meta" section of any checkpoint (empty map when the
/// section is absent).
Meta read_meta(const std::string& path);

}  // namespace fedra::ckpt
