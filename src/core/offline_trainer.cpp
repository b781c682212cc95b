#include "core/offline_trainer.hpp"

#include "telemetry/telemetry.hpp"
#include "util/contracts.hpp"
#include "util/logging.hpp"

namespace fedra {

namespace {
namespace tel = fedra::telemetry;

struct TrainerMetrics {
  tel::Counter episodes = tel::Telemetry::metrics().counter("rl.episodes");
  tel::Counter env_steps = tel::Telemetry::metrics().counter("rl.env_steps");
  /// Raw Eq. (9) per-step cost (positive; the reward is its negation).
  tel::Histogram step_cost = tel::Telemetry::metrics().histogram(
      "rl.step_cost", tel::exponential_bounds(1e-4, 2.0, 36));
  tel::Gauge episode_avg_cost =
      tel::Telemetry::metrics().gauge("rl.episode_avg_cost");
  tel::Gauge episode_avg_reward =
      tel::Telemetry::metrics().gauge("rl.episode_avg_reward");
};

TrainerMetrics& trainer_metrics() {
  static TrainerMetrics m;
  return m;
}
}  // namespace

TrainerConfig recommended_trainer_config(std::size_t episodes) {
  TrainerConfig cfg;
  cfg.episodes = episodes;
  cfg.buffer_capacity = 512;
  cfg.policy.hidden = {64, 64};
  cfg.policy.init_log_std = -1.2;
  cfg.ppo.gamma = 0.4;
  cfg.ppo.gae_lambda = 0.95;
  cfg.ppo.update_epochs = 10;
  cfg.ppo.minibatch_size = 64;
  cfg.ppo.actor_lr = 3e-4;
  cfg.ppo.critic_lr = 1e-3;
  cfg.ppo.entropy_coef = 1e-4;
  return cfg;
}

OfflineTrainer::OfflineTrainer(FlEnv env, const TrainerConfig& config,
                               std::uint64_t seed)
    : env_(std::move(env)),
      config_(config),
      agent_(env_.state_dim(), env_.action_dim(), config.policy, config.ppo,
             seed),
      buffer_(config.buffer_capacity),
      rng_(seed ^ 0xa0761d6478bd642fULL) {
  FEDRA_EXPECTS(config.episodes > 0);
}

EpisodeStats OfflineTrainer::run_episode(std::size_t episode_index) {
  EpisodeStats stats;
  stats.episode = episode_index;

  // The whole act/step/store loop is the paper's experience-collection
  // phase; PPO updates nested inside get their own "ppo_update" spans, so
  // the report can subtract them from the rollout share.
  FEDRA_TRACE_SPAN("rollout");

  // Lines 6-10: random start time, initial bandwidth-history state.
  std::vector<double> state = env_.reset(rng_);

  double cost_acc = 0.0;
  double reward_acc = 0.0;
  double time_acc = 0.0;
  double energy_acc = 0.0;
  std::size_t steps = 0;

  // The critic values both ends of every transition, and this step's
  // next_state is the next step's state. value() is a pure function of
  // (critic parameters, state), so carrying next_value forward instead of
  // re-running the batch-1 forward is bit-identical; the cache dies
  // whenever a PPO update changes the critic.
  double carried_value = 0.0;
  bool value_carried = false;

  bool done = false;
  while (!done) {
    // Line 12: sample from the behavior policy theta_old.
    PolicySample sample = agent_.act(state, rng_);
    const double value = value_carried ? carried_value : agent_.value(state);

    // Line 13: the devices run the iteration at the chosen frequencies.
    StepResult step = env_.step(sample.action);

    // Lines 14-16: reward, next state, store the transition.
    Transition t;
    t.state = state;
    t.next_state = step.state;
    t.action_u = sample.action_u;
    t.log_prob = sample.log_prob;
    t.reward = step.reward;
    t.value = value;
    t.next_value = agent_.value(step.state);
    t.episode_end = step.done;
    carried_value = t.next_value;
    value_carried = true;
    buffer_.push(std::move(t));

    cost_acc += step.info.cost;
    reward_acc += step.reward;
    time_acc += step.info.iteration_time;
    energy_acc += step.info.total_energy;
    ++steps;
    FEDRA_TELEMETRY_IF {
      auto& m = trainer_metrics();
      m.env_steps.add();
      m.step_cost.record(step.info.cost);
    }

    // Lines 17-23: buffer full -> M PPO epochs + critic fit, sync
    // theta_old, clear the buffer.
    if (buffer_.full()) {
      last_update_ = agent_.update(buffer_, rng_);
      has_update_ = true;
      buffer_.clear();
      value_carried = false;  // the update moved the critic's parameters
    }

    state = std::move(step.state);
    done = step.done;
  }

  const double inv = steps > 0 ? 1.0 / static_cast<double>(steps) : 0.0;
  stats.avg_cost = cost_acc * inv;
  stats.avg_reward = reward_acc * inv;
  stats.avg_time = time_acc * inv;
  stats.avg_energy = energy_acc * inv;
  if (has_update_) {
    stats.total_loss = last_update_.total_loss;
    stats.policy_loss = last_update_.policy_loss;
    stats.value_loss = last_update_.value_loss;
    stats.entropy = last_update_.entropy;
  }
  FEDRA_TELEMETRY_IF {
    auto& m = trainer_metrics();
    m.episodes.add();
    m.episode_avg_cost.set(stats.avg_cost);
    m.episode_avg_reward.set(stats.avg_reward);
  }
  return stats;
}

std::vector<EpisodeStats> OfflineTrainer::train(const TrainHooks& hooks) {
  FEDRA_EXPECTS(hooks.start_episode <= config_.episodes);
  std::vector<EpisodeStats> history;
  history.reserve(config_.episodes - hooks.start_episode);
  for (std::size_t e = hooks.start_episode; e < config_.episodes; ++e) {
    history.push_back(run_episode(e));
    if ((e + 1) % 50 == 0) {
      FEDRA_LOG_INFO("episode %zu/%zu: avg cost %.3f, loss %.4f", e + 1,
                     config_.episodes, history.back().avg_cost,
                     history.back().total_loss);
    }
    // A periodic snapshot plus one after the final episode, so a run that
    // completes leaves a checkpoint from which nothing replays.
    if (hooks.on_checkpoint && hooks.checkpoint_every > 0 &&
        ((e + 1 - hooks.start_episode) % hooks.checkpoint_every == 0 ||
         e + 1 == config_.episodes)) {
      hooks.on_checkpoint(e + 1, history.back());
    }
  }
  return history;
}

}  // namespace fedra
