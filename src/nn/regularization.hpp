// Regularization layers and schedules: inverted dropout and learning-rate
// schedulers for the optimizers. Dropout has distinct train/eval modes —
// eval is the identity (inverted scaling happens at train time).
#pragma once

#include <memory>

#include "nn/layer.hpp"
#include "nn/optimizer.hpp"
#include "util/rng.hpp"

namespace fedra {

/// Inverted dropout: at train time each activation is zeroed with
/// probability p and survivors are scaled by 1/(1-p); at eval time the
/// layer is the identity. The mask is cached for the backward pass.
class Dropout final : public Layer {
 public:
  /// `p` is the drop probability in [0, 1); the RNG is owned (seeded
  /// explicitly so training runs stay reproducible).
  Dropout(double p, std::uint64_t seed);

  void forward_into(const Matrix& input, Matrix& out) override;
  void backward_into(const Matrix& grad_output, Matrix& grad_in) override;
  std::string name() const override { return "Dropout"; }

  void set_training(bool training) { training_ = training; }
  bool training() const { return training_; }
  double drop_probability() const { return p_; }

 private:
  double p_;
  bool training_ = true;
  Rng rng_;
  Matrix mask_;  ///< cached keep-mask (already scaled) from forward
};

/// Learning-rate schedule interface: maps a step index to a multiplier of
/// the base learning rate.
class LrSchedule {
 public:
  virtual ~LrSchedule() = default;
  /// Multiplier at `step` (0-based), in (0, 1].
  virtual double multiplier(std::size_t step) const = 0;
};

/// Constant multiplier 1 — the default/no-op schedule.
class ConstantLr final : public LrSchedule {
 public:
  double multiplier(std::size_t) const override { return 1.0; }
};

/// Step decay: lr *= factor every `interval` steps.
class StepDecayLr final : public LrSchedule {
 public:
  StepDecayLr(std::size_t interval, double factor);
  double multiplier(std::size_t step) const override;

 private:
  std::size_t interval_;
  double factor_;
};

/// Cosine annealing from 1 to `floor` over `total_steps` (clamped after).
class CosineLr final : public LrSchedule {
 public:
  explicit CosineLr(std::size_t total_steps, double floor = 0.0);
  double multiplier(std::size_t step) const override;

 private:
  std::size_t total_steps_;
  double floor_;
};

/// Linear warmup over `warmup_steps`, then constant 1.
class WarmupLr final : public LrSchedule {
 public:
  explicit WarmupLr(std::size_t warmup_steps);
  double multiplier(std::size_t step) const override;

 private:
  std::size_t warmup_steps_;
};

/// Drives an optimizer's learning rate from a schedule. Call step() once
/// per optimizer step AFTER opt.step().
template <typename Opt>
class ScheduledOptimizer {
 public:
  ScheduledOptimizer(Opt& opt, std::unique_ptr<LrSchedule> schedule)
      : opt_(opt), base_lr_(opt.lr()), schedule_(std::move(schedule)) {}

  /// Applies the scheduled rate, runs the optimizer step, advances time.
  void step() {
    opt_.set_lr(base_lr_ * schedule_->multiplier(t_));
    opt_.step();
    ++t_;
  }

  std::size_t steps_taken() const { return t_; }
  double current_lr() const { return opt_.lr(); }

 private:
  Opt& opt_;
  double base_lr_;
  std::unique_ptr<LrSchedule> schedule_;
  std::size_t t_ = 0;
};

}  // namespace fedra
