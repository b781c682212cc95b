#include "ckpt/checkpoint.hpp"

#include "ckpt/state.hpp"

namespace fedra::ckpt {

namespace {

void write_meta(Writer& out, const Meta& meta) {
  ByteWriter& w = out.add(kMetaSection);
  w.put_u64(meta.size());
  for (const auto& [key, value] : meta) {
    w.put_string(key);
    w.put_f64(value);
  }
}

Meta parse_meta(ByteReader in) {
  return decode_guard([&] {
    Meta meta;
    const std::uint64_t count = in.get_u64();
    for (std::uint64_t i = 0; i < count; ++i) {
      std::string key = in.get_string();
      const double value = in.get_f64();
      meta.emplace(std::move(key), value);
    }
    in.expect_end();
    return meta;
  });
}

}  // namespace

void save_trainer(const std::string& path, OfflineTrainer& trainer,
                  std::size_t next_episode, const Meta& meta) {
  Writer out;
  write_meta(out, meta);

  ByteWriter& t = out.add(kTrainerSection);
  t.put_u64(next_episode);
  // Topology fingerprint: restore into a differently-shaped trainer must
  // fail loudly even where the parameter shapes happen to coincide.
  t.put_u64(trainer.env().state_dim());
  t.put_u64(trainer.env().action_dim());
  t.put_bool(trainer.has_update());
  const UpdateStats& u = trainer.last_update();
  t.put_f64(u.policy_loss);
  t.put_f64(u.value_loss);
  t.put_f64(u.entropy);
  t.put_f64(u.approx_kl);
  t.put_f64(u.clip_fraction);
  t.put_f64(u.total_loss);
  save_rng(t, trainer.rng());

  save_ppo_agent(out, trainer.agent());
  save_rollout(out.add(kRolloutSection), trainer.rollout_buffer());
  save_env(out.add(kEnvSection), trainer.env());

  out.write_file(path);
}

std::size_t restore_trainer(const std::string& path,
                            OfflineTrainer& trainer) {
  const Reader in = Reader::from_file(path);

  std::size_t next_episode = 0;
  decode_guard([&] {
    ByteReader t = in.open(kTrainerSection);
    next_episode = static_cast<std::size_t>(t.get_u64());
    const std::uint64_t state_dim = t.get_u64();
    const std::uint64_t action_dim = t.get_u64();
    if (state_dim != trainer.env().state_dim() ||
        action_dim != trainer.env().action_dim()) {
      throw CkptError(Errc::kStateMismatch,
                      "state/action dimensions do not match the target "
                      "trainer");
    }
    const bool has_update = t.get_bool();
    UpdateStats u;
    u.policy_loss = t.get_f64();
    u.value_loss = t.get_f64();
    u.entropy = t.get_f64();
    u.approx_kl = t.get_f64();
    u.clip_fraction = t.get_f64();
    u.total_loss = t.get_f64();
    // The trainer RNG tail of this section is framed by load_rng.
    RngState rng_state;
    for (std::uint64_t& w : rng_state.s) w = t.get_u64();
    rng_state.gauss_cached = t.get_bool();
    rng_state.gauss_cache = t.get_f64();
    t.expect_end();
    trainer.restore_update_stats(u, has_update);
    trainer.rng().set_state(rng_state);
  });

  load_ppo_agent(in, trainer.agent());
  load_rollout(in.open(kRolloutSection), trainer.rollout_buffer());
  load_env(in.open(kEnvSection), trainer.env());
  return next_episode;
}

Meta read_meta(const std::string& path) {
  const Reader in = Reader::from_file(path);
  if (!in.has(kMetaSection)) return {};
  return parse_meta(in.open(kMetaSection));
}

}  // namespace fedra::ckpt
