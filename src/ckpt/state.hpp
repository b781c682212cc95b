// Per-component checkpoint codecs: each pair of save_x / load_x functions
// serializes ONE kind of experiment state into / out of a section payload
// (a ByteWriter / ByteReader). The Checkpoint facade (checkpoint.hpp)
// composes them into full experiment snapshots; tests exercise them
// individually.
//
// Conventions:
//   - load_x restores INTO an already-constructed object of matching
//     topology (networks, optimizers and buffers are rebuilt from the
//     experiment config by the caller; the codec carries only the mutable
//     state). A shape/topology mismatch throws
//     CkptError(Errc::kStateMismatch);
//   - malformed or short payloads surface as CkptError(Errc::kMalformed)
//     — the ByteReader bounds checks guarantee no out-of-bounds reads;
//   - every float is stored as raw IEEE-754 bits, so restored state is
//     bit-identical to what was saved.
#pragma once

#include <cstddef>

#include "ckpt/format.hpp"
#include "env/fl_env.hpp"
#include "nn/optimizer.hpp"
#include "rl/ppo.hpp"
#include "rl/rollout.hpp"
#include "sim/simulator_base.hpp"
#include "util/rng.hpp"

namespace fedra::ckpt {

/// Runs `fn` and converts any SerializeError escaping it into
/// CkptError(kMalformed) — the boundary between raw codec errors and the
/// subsystem's typed surface.
template <typename Fn>
auto decode_guard(Fn&& fn) -> decltype(fn()) {
  try {
    return fn();
  } catch (const SerializeError& e) {
    throw CkptError(Errc::kMalformed, e.what());
  }
}

// RNG stream position (xoshiro words + gaussian cache).
void save_rng(ByteWriter& out, const Rng& rng);
void load_rng(ByteReader in, Rng& rng);

// A parameter list (e.g. GaussianPolicy::params() or
// Sequential::param_values()). load_params writes through the pointers;
// count and shapes must match.
void save_params(ByteWriter& out, const std::vector<Matrix*>& params);
void save_params(ByteWriter& out, const std::vector<Matrix>& params);
void load_params(ByteReader in, const std::vector<Matrix*>& params);

// Adam step counter + first/second moments.
void save_adam(ByteWriter& out, const Adam& opt);
void load_adam(ByteReader in, Adam& opt);

// Rollout buffer contents (possibly mid-fill); capacity must match.
void save_rollout(ByteWriter& out, const RolloutBuffer& buffer);
void load_rollout(ByteReader in, RolloutBuffer& buffer);

// Simulator clock + round counter (the "trace cursor": traces are
// stateless functions of time, so the clock IS the cursor).
void save_sim_clock(ByteWriter& out, const SimulatorBase& sim);
void load_sim_clock(ByteReader in, SimulatorBase& sim);

// FlEnv mid-episode state: device count, state scaling, sim clock and
// episode step counter.
void save_env(ByteWriter& out, const FlEnv& env);
void load_env(ByteReader in, FlEnv& env);

// PPO agent: theta_a, theta_a^old, theta_v, and both Adam states, written
// as sections "<prefix>.actor", "<prefix>.actor_old", "<prefix>.critic",
// "<prefix>.actor_opt", "<prefix>.critic_opt".
void save_ppo_agent(Writer& out, PpoAgent& agent,
                    const std::string& prefix = "ppo");
void load_ppo_agent(const Reader& in, PpoAgent& agent,
                    const std::string& prefix = "ppo");

}  // namespace fedra::ckpt
