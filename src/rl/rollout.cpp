#include "rl/rollout.hpp"

namespace fedra {

RolloutBuffer::RolloutBuffer(std::size_t capacity) : capacity_(capacity) {
  FEDRA_EXPECTS(capacity > 0);
  transitions_.reserve(capacity);
}

void RolloutBuffer::push(Transition t) {
  FEDRA_EXPECTS(!full());
  FEDRA_EXPECTS(!t.state.empty() && !t.action_u.empty());
  FEDRA_EXPECTS(t.next_state.size() == t.state.size());
  if (!transitions_.empty()) {
    FEDRA_EXPECTS(t.state.size() == transitions_.front().state.size());
    FEDRA_EXPECTS(t.action_u.size() == transitions_.front().action_u.size());
  }
  transitions_.push_back(std::move(t));
}

void RolloutBuffer::states_matrix_into(Matrix& m) const {
  FEDRA_EXPECTS(!transitions_.empty());
  const std::size_t dim = transitions_.front().state.size();
  m.resize_reuse(transitions_.size(), dim);
  for (std::size_t i = 0; i < transitions_.size(); ++i) {
    auto row = m.row(i);
    for (std::size_t j = 0; j < dim; ++j) row[j] = transitions_[i].state[j];
  }
}

void RolloutBuffer::next_states_matrix_into(Matrix& m) const {
  FEDRA_EXPECTS(!transitions_.empty());
  const std::size_t dim = transitions_.front().next_state.size();
  m.resize_reuse(transitions_.size(), dim);
  for (std::size_t i = 0; i < transitions_.size(); ++i) {
    auto row = m.row(i);
    for (std::size_t j = 0; j < dim; ++j) {
      row[j] = transitions_[i].next_state[j];
    }
  }
}

void RolloutBuffer::actions_matrix_into(Matrix& m) const {
  FEDRA_EXPECTS(!transitions_.empty());
  const std::size_t dim = transitions_.front().action_u.size();
  m.resize_reuse(transitions_.size(), dim);
  for (std::size_t i = 0; i < transitions_.size(); ++i) {
    auto row = m.row(i);
    for (std::size_t j = 0; j < dim; ++j) row[j] = transitions_[i].action_u[j];
  }
}

std::vector<double> RolloutBuffer::rewards() const {
  std::vector<double> v;
  v.reserve(size());
  for (const auto& t : transitions_) v.push_back(t.reward);
  return v;
}

std::vector<double> RolloutBuffer::values() const {
  std::vector<double> v;
  v.reserve(size());
  for (const auto& t : transitions_) v.push_back(t.value);
  return v;
}

std::vector<double> RolloutBuffer::next_values() const {
  std::vector<double> v;
  v.reserve(size());
  for (const auto& t : transitions_) v.push_back(t.next_value);
  return v;
}

std::vector<double> RolloutBuffer::log_probs() const {
  std::vector<double> v;
  v.reserve(size());
  for (const auto& t : transitions_) v.push_back(t.log_prob);
  return v;
}

std::vector<bool> RolloutBuffer::episode_ends() const {
  std::vector<bool> v;
  v.reserve(size());
  for (const auto& t : transitions_) v.push_back(t.episode_end);
  return v;
}

}  // namespace fedra
