// The tentpole acceptance test: a training run checkpointed at episode k
// and resumed in a FRESH trainer must be indistinguishable — bit for bit —
// from the run that never stopped. Model parameters, optimizer moments,
// RNG draws and per-episode costs are all compared exactly.
#include "ckpt/checkpoint.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <functional>
#include <string>

#include "ckpt/state.hpp"
#include "sim/experiment_config.hpp"

namespace fedra::ckpt {
namespace {

class TempFile {
 public:
  explicit TempFile(const std::string& name)
      : path_(::testing::TempDir() + name) {}
  ~TempFile() {
    std::remove(path_.c_str());
    std::remove((path_ + ".tmp").c_str());
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

Errc code_of(const std::function<void()>& fn) {
  try {
    fn();
  } catch (const CkptError& e) {
    return e.code();
  }
  ADD_FAILURE() << "expected a CkptError";
  return Errc::kIo;
}

FlEnv make_env(std::uint64_t seed = 42) {
  ExperimentConfig cfg = testbed_config();
  cfg.trace_samples = 400;
  cfg.seed = seed;
  FlEnvConfig env_cfg;
  env_cfg.episode_length = 12;
  env_cfg.slot_seconds = cfg.slot_seconds;
  env_cfg.history_slots = cfg.history_slots;
  return FlEnv(build_simulator(cfg), env_cfg);
}

TrainerConfig small_trainer(std::size_t episodes) {
  TrainerConfig cfg;
  cfg.episodes = episodes;
  cfg.buffer_capacity = 32;  // updates fire mid-run AND the buffer is
  cfg.policy.hidden = {16};  // mid-fill at most checkpoints
  cfg.ppo.update_epochs = 2;
  cfg.ppo.minibatch_size = 16;
  return cfg;
}

OfflineTrainer make_trainer(std::size_t episodes) {
  return OfflineTrainer(make_env(), small_trainer(episodes), 7);
}

std::vector<Matrix> agent_params(OfflineTrainer& t) {
  std::vector<Matrix> out;
  for (Matrix* p : t.agent().policy().params()) out.push_back(*p);
  for (Matrix* p : t.agent().behavior_policy().params()) out.push_back(*p);
  for (Matrix* p : t.agent().critic().params()) out.push_back(*p);
  return out;
}

TEST(CkptResume, ResumedRunIsBitIdenticalToUninterrupted) {
  constexpr std::size_t kTotal = 6;
  constexpr std::size_t kCut = 3;

  // Reference: train straight through.
  OfflineTrainer straight = make_trainer(kTotal);
  auto full_history = straight.train();

  // Interrupted: identical construction, checkpoint at episode kCut...
  TempFile ckpt("fedra_resume.ckpt");
  OfflineTrainer first = make_trainer(kTotal);
  TrainHooks save_hooks;
  save_hooks.checkpoint_every = kCut;
  std::size_t saved_next = 0;
  save_hooks.on_checkpoint = [&](std::size_t next_episode,
                                 const EpisodeStats& stats) {
    if (next_episode == kCut) {
      save_trainer(ckpt.path(), first, next_episode,
                   {{"avg_cost", stats.avg_cost}});
      saved_next = next_episode;
    }
  };
  (void)first.train(save_hooks);
  ASSERT_EQ(saved_next, kCut);

  // ...then restore into a FRESH trainer and finish the run.
  OfflineTrainer resumed = make_trainer(kTotal);
  TrainHooks resume_hooks;
  resume_hooks.start_episode = restore_trainer(ckpt.path(), resumed);
  ASSERT_EQ(resume_hooks.start_episode, kCut);
  auto tail_history = resumed.train(resume_hooks);

  // Per-episode stats of the tail must match the uninterrupted run
  // EXACTLY — no tolerance.
  ASSERT_EQ(tail_history.size(), kTotal - kCut);
  for (std::size_t e = 0; e < tail_history.size(); ++e) {
    EXPECT_EQ(tail_history[e].episode, full_history[kCut + e].episode);
    EXPECT_EQ(tail_history[e].avg_cost, full_history[kCut + e].avg_cost);
    EXPECT_EQ(tail_history[e].avg_reward,
              full_history[kCut + e].avg_reward);
    EXPECT_EQ(tail_history[e].total_loss,
              full_history[kCut + e].total_loss);
  }

  // Every network parameter (actor, behavior actor, critic) bit-equal.
  auto p_straight = agent_params(straight);
  auto p_resumed = agent_params(resumed);
  ASSERT_EQ(p_straight.size(), p_resumed.size());
  for (std::size_t i = 0; i < p_straight.size(); ++i) {
    EXPECT_EQ(p_straight[i], p_resumed[i]) << "parameter " << i;
  }

  // Optimizer state bit-equal (moments AND step counter).
  EXPECT_EQ(straight.agent().actor_optimizer().timestep(),
            resumed.agent().actor_optimizer().timestep());
  EXPECT_EQ(straight.agent().critic_optimizer().timestep(),
            resumed.agent().critic_optimizer().timestep());

  // The RNG streams are at the same position: future draws agree.
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(straight.rng().next_u64(), resumed.rng().next_u64());
  }

  // And the environments march on in lockstep.
  EXPECT_EQ(straight.env().simulator().now(),
            resumed.env().simulator().now());
  EXPECT_EQ(straight.env().simulator().iteration(),
            resumed.env().simulator().iteration());
}

TEST(CkptResume, MetadataRoundTrips) {
  TempFile ckpt("fedra_meta.ckpt");
  OfflineTrainer trainer = make_trainer(2);
  save_trainer(ckpt.path(), trainer, 1,
               {{"avg_cost", 12.5}, {"seed", 7.0}});
  Meta meta = read_meta(ckpt.path());
  ASSERT_EQ(meta.size(), 2u);
  EXPECT_EQ(meta.at("avg_cost"), 12.5);
  EXPECT_EQ(meta.at("seed"), 7.0);
}

TEST(CkptResume, RestoreIntoMismatchedTrainerIsTyped) {
  TempFile ckpt("fedra_mismatch.ckpt");
  OfflineTrainer trainer = make_trainer(2);
  save_trainer(ckpt.path(), trainer, 1);

  // Different network width -> parameter shapes cannot match.
  FlEnv env = make_env();
  TrainerConfig cfg = small_trainer(2);
  cfg.policy.hidden = {24};
  OfflineTrainer wrong(std::move(env), cfg, 7);
  EXPECT_EQ(code_of([&] { restore_trainer(ckpt.path(), wrong); }),
            Errc::kStateMismatch);
}

TEST(CkptResume, CorruptedCheckpointsAreTypedNotFatal) {
  TempFile ckpt("fedra_corrupt.ckpt");
  OfflineTrainer trainer = make_trainer(2);
  (void)trainer.run_episode(0);
  save_trainer(ckpt.path(), trainer, 1);

  std::string bytes;
  {
    std::ifstream in(ckpt.path(), std::ios::binary);
    bytes.assign((std::istreambuf_iterator<char>(in)),
                 std::istreambuf_iterator<char>());
  }
  ASSERT_GT(bytes.size(), 600u);

  auto write_bytes = [&](const std::string& b) {
    std::ofstream out(ckpt.path(), std::ios::binary | std::ios::trunc);
    out.write(b.data(), static_cast<std::streamsize>(b.size()));
  };

  // Truncations at a spread of cut points.
  for (std::size_t len :
       {std::size_t{0}, std::size_t{3}, std::size_t{17}, std::size_t{200},
        bytes.size() / 2, bytes.size() - 1}) {
    write_bytes(bytes.substr(0, len));
    OfflineTrainer target = make_trainer(2);
    try {
      restore_trainer(ckpt.path(), target);
      FAIL() << "truncation to " << len << " bytes must throw";
    } catch (const CkptError& e) {
      EXPECT_TRUE(e.code() == Errc::kTruncated ||
                  e.code() == Errc::kBadMagic)
          << "at length " << len << ": " << e.what();
    }
  }

  // Bit flips across the whole file (stride keeps the test fast).
  for (std::size_t byte = 0; byte < bytes.size(); byte += 97) {
    std::string flipped = bytes;
    flipped[byte] = static_cast<char>(flipped[byte] ^ 0x10);
    write_bytes(flipped);
    OfflineTrainer target = make_trainer(2);
    EXPECT_THROW(restore_trainer(ckpt.path(), target), CkptError)
        << "flip at byte " << byte;
  }

  // Version bump.
  {
    std::string wrong_version = bytes;
    wrong_version[4] = static_cast<char>(kFormatVersion + 3);
    write_bytes(wrong_version);
    OfflineTrainer target = make_trainer(2);
    EXPECT_EQ(code_of([&] { restore_trainer(ckpt.path(), target); }),
              Errc::kBadVersion);
  }

  // The original file still restores (corruption handling is side-effect
  // free on the reader path).
  write_bytes(bytes);
  OfflineTrainer target = make_trainer(2);
  EXPECT_EQ(restore_trainer(ckpt.path(), target), 1u);
}

}  // namespace
}  // namespace fedra::ckpt
