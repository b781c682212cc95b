#include "ckpt/state.hpp"

#include <string>

namespace fedra::ckpt {

namespace {

[[noreturn]] void throw_mismatch(const std::string& what) {
  throw CkptError(Errc::kStateMismatch, what);
}

[[noreturn]] void throw_malformed(const std::string& what) {
  throw CkptError(Errc::kMalformed, what);
}

}  // namespace

void save_rng(ByteWriter& out, const Rng& rng) {
  const RngState st = rng.state();
  for (std::uint64_t w : st.s) out.put_u64(w);
  out.put_bool(st.gauss_cached);
  out.put_f64(st.gauss_cache);
}

void load_rng(ByteReader in, Rng& rng) {
  decode_guard([&] {
    RngState st;
    for (std::uint64_t& w : st.s) w = in.get_u64();
    st.gauss_cached = in.get_bool();
    st.gauss_cache = in.get_f64();
    in.expect_end();
    rng.set_state(st);
  });
}

void save_params(ByteWriter& out, const std::vector<Matrix*>& params) {
  out.put_u64(params.size());
  for (const Matrix* m : params) out.put_matrix(*m);
}

void save_params(ByteWriter& out, const std::vector<Matrix>& params) {
  out.put_u64(params.size());
  for (const Matrix& m : params) out.put_matrix(m);
}

void load_params(ByteReader in, const std::vector<Matrix*>& params) {
  decode_guard([&] {
    const std::uint64_t count = in.get_u64();
    if (count != params.size()) {
      throw_mismatch("parameter count " + std::to_string(count) +
                     " does not match target " +
                     std::to_string(params.size()));
    }
    for (Matrix* target : params) {
      Matrix m = in.get_matrix();
      if (!m.same_shape(*target)) {
        throw_mismatch("parameter shape (" + std::to_string(m.rows()) + "x" +
                       std::to_string(m.cols()) +
                       ") does not match target (" +
                       std::to_string(target->rows()) + "x" +
                       std::to_string(target->cols()) + ")");
      }
      *target = std::move(m);
    }
    in.expect_end();
  });
}

void save_adam(ByteWriter& out, const Adam& opt) {
  out.put_u64(opt.timestep());
  save_params(out, opt.moment1());
  save_params(out, opt.moment2());
}

void load_adam(ByteReader in, Adam& opt) {
  decode_guard([&] {
    const std::uint64_t t = in.get_u64();
    const std::uint64_t m_count = in.get_u64();
    if (m_count != opt.moment1().size()) {
      throw_mismatch("Adam moment count " + std::to_string(m_count) +
                     " does not match target " +
                     std::to_string(opt.moment1().size()));
    }
    std::vector<Matrix> m;
    m.reserve(opt.moment1().size());
    for (std::size_t i = 0; i < opt.moment1().size(); ++i) {
      Matrix mat = in.get_matrix();
      if (!mat.same_shape(opt.moment1()[i])) {
        throw_mismatch("Adam first-moment shape mismatch at parameter " +
                       std::to_string(i));
      }
      m.push_back(std::move(mat));
    }
    const std::uint64_t v_count = in.get_u64();
    if (v_count != opt.moment2().size()) {
      throw_mismatch("Adam moment count " + std::to_string(v_count) +
                     " does not match target " +
                     std::to_string(opt.moment2().size()));
    }
    std::vector<Matrix> v;
    v.reserve(opt.moment2().size());
    for (std::size_t i = 0; i < opt.moment2().size(); ++i) {
      Matrix mat = in.get_matrix();
      if (!mat.same_shape(opt.moment2()[i])) {
        throw_mismatch("Adam second-moment shape mismatch at parameter " +
                       std::to_string(i));
      }
      v.push_back(std::move(mat));
    }
    in.expect_end();
    opt.restore_state(static_cast<std::size_t>(t), std::move(m),
                      std::move(v));
  });
}

void save_rollout(ByteWriter& out, const RolloutBuffer& buffer) {
  out.put_u64(buffer.capacity());
  out.put_u64(buffer.size());
  for (const Transition& t : buffer.transitions()) {
    out.put_doubles(t.state);
    out.put_doubles(t.next_state);
    out.put_doubles(t.action_u);
    out.put_f64(t.log_prob);
    out.put_f64(t.reward);
    out.put_f64(t.value);
    out.put_f64(t.next_value);
    out.put_bool(t.episode_end);
  }
}

void load_rollout(ByteReader in, RolloutBuffer& buffer) {
  decode_guard([&] {
    const std::uint64_t capacity = in.get_u64();
    if (capacity != buffer.capacity()) {
      throw_mismatch("rollout capacity " + std::to_string(capacity) +
                     " does not match target " +
                     std::to_string(buffer.capacity()));
    }
    const std::uint64_t size = in.get_u64();
    if (size > capacity) {
      throw_malformed("rollout size exceeds its capacity");
    }
    std::vector<Transition> loaded;
    loaded.reserve(static_cast<std::size_t>(size));
    for (std::uint64_t i = 0; i < size; ++i) {
      Transition t;
      t.state = in.get_doubles();
      t.next_state = in.get_doubles();
      t.action_u = in.get_doubles();
      t.log_prob = in.get_f64();
      t.reward = in.get_f64();
      t.value = in.get_f64();
      t.next_value = in.get_f64();
      t.episode_end = in.get_bool();
      // push() contract: non-empty state/action, consistent dims. Check
      // here so a corrupt payload maps to a typed error, not an abort.
      const bool consistent =
          !t.state.empty() && !t.action_u.empty() &&
          t.next_state.size() == t.state.size() &&
          (loaded.empty() ||
           (t.state.size() == loaded.front().state.size() &&
            t.action_u.size() == loaded.front().action_u.size()));
      if (!consistent) throw_malformed("inconsistent rollout transition");
      loaded.push_back(std::move(t));
    }
    in.expect_end();
    buffer.clear();
    for (Transition& t : loaded) buffer.push(std::move(t));
  });
}

void save_sim_clock(ByteWriter& out, const SimulatorBase& sim) {
  out.put_f64(sim.now());
  out.put_u64(sim.iteration());
}

void load_sim_clock(ByteReader in, SimulatorBase& sim) {
  decode_guard([&] {
    const double now = in.get_f64();
    const std::uint64_t iteration = in.get_u64();
    in.expect_end();
    sim.restore_clock(now, static_cast<std::size_t>(iteration));
  });
}

void save_env(ByteWriter& out, const FlEnv& env) {
  out.put_u64(env.num_devices());
  out.put_f64(env.bandwidth_ref());
  save_sim_clock(out, env.simulator());
  out.put_u64(env.steps_in_episode());
}

void load_env(ByteReader in, FlEnv& env) {
  decode_guard([&] {
    const std::uint64_t num_devices = in.get_u64();
    if (num_devices != env.num_devices()) {
      throw_mismatch("device count " + std::to_string(num_devices) +
                     " does not match target " +
                     std::to_string(env.num_devices()));
    }
    // bandwidth_ref scales every state entry and is derived
    // deterministically from config + traces — a difference means the env
    // was rebuilt from a different experiment setup.
    const double bandwidth_ref = in.get_f64();
    if (bandwidth_ref != env.bandwidth_ref()) {
      throw_mismatch("bandwidth reference does not match the target env");
    }
    const double now = in.get_f64();
    const std::uint64_t iteration = in.get_u64();
    const std::uint64_t steps_in_episode = in.get_u64();
    in.expect_end();
    env.simulator().restore_clock(now, static_cast<std::size_t>(iteration));
    env.restore_episode(static_cast<std::size_t>(steps_in_episode));
  });
}

void save_ppo_agent(Writer& out, PpoAgent& agent, const std::string& prefix) {
  save_params(out.add(prefix + ".actor"), agent.policy().params());
  save_params(out.add(prefix + ".actor_old"),
              agent.behavior_policy().params());
  save_params(out.add(prefix + ".critic"), agent.critic().params());
  save_adam(out.add(prefix + ".actor_opt"), agent.actor_optimizer());
  save_adam(out.add(prefix + ".critic_opt"), agent.critic_optimizer());
}

void load_ppo_agent(const Reader& in, PpoAgent& agent,
                    const std::string& prefix) {
  load_params(in.open(prefix + ".actor"), agent.policy().params());
  load_params(in.open(prefix + ".actor_old"),
              agent.behavior_policy().params());
  load_params(in.open(prefix + ".critic"), agent.critic().params());
  load_adam(in.open(prefix + ".actor_opt"), agent.actor_optimizer());
  load_adam(in.open(prefix + ".critic_opt"), agent.critic_optimizer());
}

}  // namespace fedra::ckpt
