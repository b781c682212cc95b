// Reusable training workspace: named scratch Matrix slots with stable
// addresses, so forward/backward passes re-run over the same preallocated
// buffers instead of constructing fresh matrices every step. It is the
// only way to run a Sequential: Sequential::forward_cached/backward_cached
// take one.
//
// Ownership rules (see DESIGN.md "Performance"):
//   * The CALLER owns the Workspace; layers never allocate slots
//     themselves. One workspace per (network, training loop) pair —
//     slots are positional, so interleaving two networks through one
//     workspace corrupts both, and a second forward through it
//     overwrites the first one's outputs.
//   * Slot references are stable for the workspace's lifetime (deque
//     storage), which is what lets layers cache a pointer to their
//     forward input instead of deep-copying it.
//   * An input passed to forward_cached must stay valid and unmodified
//     until the matching backward_cached completes.
//   * Buffers are resized with capacity reuse: steady-state shapes
//     oscillate between a few values, so after the first pass the heap
//     is never touched again (tensor_alloc_stats() proves it).
#pragma once

#include <cstddef>
#include <deque>

#include "tensor/matrix.hpp"

namespace fedra {

class Workspace {
 public:
  Workspace() = default;
  Workspace(const Workspace&) = delete;
  Workspace& operator=(const Workspace&) = delete;
  // Movable: deque elements keep their addresses across a move, so
  // pointers layers cached into slots stay valid when the owner moves.
  Workspace(Workspace&&) = default;
  Workspace& operator=(Workspace&&) = default;

  /// Activation slot i (output buffer of layer i in a cached forward).
  /// Created empty on first use; address stable thereafter.
  Matrix& slot(std::size_t i) {
    while (slots_.size() <= i) slots_.emplace_back();
    return slots_[i];
  }

  /// Gradient ping-pong buffer (cached backward alternates between 0 and
  /// 1 so a layer never reads and writes the same buffer).
  Matrix& grad(std::size_t i) {
    while (grads_.size() <= i) grads_.emplace_back();
    return grads_[i];
  }

  std::size_t num_slots() const { return slots_.size(); }

  /// Drops every buffer's heap block (slots stay addressable but empty).
  void release() {
    for (auto& m : slots_) m.release();
    for (auto& m : grads_) m.release();
  }

 private:
  std::deque<Matrix> slots_;
  std::deque<Matrix> grads_;
};

}  // namespace fedra
