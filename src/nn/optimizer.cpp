#include "nn/optimizer.hpp"

#include <cmath>

#include "util/contracts.hpp"

namespace fedra {

Optimizer::Optimizer(Module& network)
    : params_(network.params()), grads_(network.grads()) {
  FEDRA_EXPECTS(params_.size() == grads_.size());
}

Optimizer::Optimizer(std::vector<Matrix*> params, std::vector<Matrix*> grads)
    : params_(std::move(params)), grads_(std::move(grads)) {
  FEDRA_EXPECTS(params_.size() == grads_.size());
  for (std::size_t i = 0; i < params_.size(); ++i) {
    FEDRA_EXPECTS(params_[i] != nullptr && grads_[i] != nullptr);
    FEDRA_EXPECTS(params_[i]->same_shape(*grads_[i]));
  }
}

void Optimizer::zero_grad() {
  for (Matrix* g : grads_) g->set_zero();
}

double Optimizer::clip_grad_norm(double max_norm) {
  FEDRA_EXPECTS(max_norm > 0.0);
  double sq = 0.0;
  for (Matrix* g : grads_) {
    for (double x : g->flat()) sq += x * x;
  }
  const double norm = std::sqrt(sq);
  if (norm > max_norm) {
    const double scale = max_norm / norm;
    for (Matrix* g : grads_) (*g) *= scale;
  }
  return norm;
}

namespace {
void check_sgd_args(double lr, double momentum) {
  FEDRA_EXPECTS(lr > 0.0 && momentum >= 0.0 && momentum < 1.0);
}
}  // namespace

Sgd::Sgd(Module& network, double lr, double momentum, double weight_decay)
    : Optimizer(network),
      lr_(lr),
      momentum_(momentum),
      weight_decay_(weight_decay) {
  check_sgd_args(lr, momentum);
  if (momentum_ > 0.0) {
    velocity_.reserve(params_.size());
    for (Matrix* p : params_) {
      velocity_.emplace_back(p->rows(), p->cols());
    }
  }
}

Sgd::Sgd(std::vector<Matrix*> params, std::vector<Matrix*> grads, double lr,
         double momentum, double weight_decay)
    : Optimizer(std::move(params), std::move(grads)),
      lr_(lr),
      momentum_(momentum),
      weight_decay_(weight_decay) {
  check_sgd_args(lr, momentum);
  if (momentum_ > 0.0) {
    velocity_.reserve(params_.size());
    for (Matrix* p : params_) {
      velocity_.emplace_back(p->rows(), p->cols());
    }
  }
}

void Sgd::step() {
  for (std::size_t i = 0; i < params_.size(); ++i) {
    Matrix& p = *params_[i];
    const Matrix& g = *grads_[i];
    if (weight_decay_ > 0.0) {
      for (std::size_t j = 0; j < p.size(); ++j) {
        p[j] -= lr_ * weight_decay_ * p[j];
      }
    }
    if (momentum_ > 0.0) {
      Matrix& v = velocity_[i];
      for (std::size_t j = 0; j < p.size(); ++j) {
        v[j] = momentum_ * v[j] + g[j];
        p[j] -= lr_ * v[j];
      }
    } else {
      for (std::size_t j = 0; j < p.size(); ++j) p[j] -= lr_ * g[j];
    }
  }
}

namespace {
void check_adam_args(double lr, double beta1, double beta2) {
  FEDRA_EXPECTS(lr > 0.0);
  FEDRA_EXPECTS(beta1 >= 0.0 && beta1 < 1.0);
  FEDRA_EXPECTS(beta2 >= 0.0 && beta2 < 1.0);
}
}  // namespace

Adam::Adam(Module& network, double lr, double beta1, double beta2, double eps)
    : Optimizer(network), lr_(lr), beta1_(beta1), beta2_(beta2), eps_(eps) {
  check_adam_args(lr, beta1, beta2);
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (Matrix* p : params_) {
    m_.emplace_back(p->rows(), p->cols());
    v_.emplace_back(p->rows(), p->cols());
  }
}

Adam::Adam(std::vector<Matrix*> params, std::vector<Matrix*> grads, double lr,
           double beta1, double beta2, double eps)
    : Optimizer(std::move(params), std::move(grads)),
      lr_(lr),
      beta1_(beta1),
      beta2_(beta2),
      eps_(eps) {
  check_adam_args(lr, beta1, beta2);
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (Matrix* p : params_) {
    m_.emplace_back(p->rows(), p->cols());
    v_.emplace_back(p->rows(), p->cols());
  }
}

void Adam::step() {
  ++t_;
  const double bc1 = 1.0 - std::pow(beta1_, static_cast<double>(t_));
  const double bc2 = 1.0 - std::pow(beta2_, static_cast<double>(t_));
  for (std::size_t i = 0; i < params_.size(); ++i) {
    Matrix& p = *params_[i];
    const Matrix& g = *grads_[i];
    Matrix& m = m_[i];
    Matrix& v = v_[i];
    for (std::size_t j = 0; j < p.size(); ++j) {
      m[j] = beta1_ * m[j] + (1.0 - beta1_) * g[j];
      v[j] = beta2_ * v[j] + (1.0 - beta2_) * g[j] * g[j];
      const double mhat = m[j] / bc1;
      const double vhat = v[j] / bc2;
      p[j] -= lr_ * mhat / (std::sqrt(vhat) + eps_);
    }
  }
}

void Adam::restore_state(std::size_t t, std::vector<Matrix> m,
                         std::vector<Matrix> v) {
  FEDRA_EXPECTS(m.size() == params_.size() && v.size() == params_.size());
  for (std::size_t i = 0; i < params_.size(); ++i) {
    FEDRA_EXPECTS(m[i].same_shape(*params_[i]));
    FEDRA_EXPECTS(v[i].same_shape(*params_[i]));
  }
  t_ = t;
  m_ = std::move(m);
  v_ = std::move(v);
}

}  // namespace fedra
