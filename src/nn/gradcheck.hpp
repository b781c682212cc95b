// Numerical gradient checking: central finite differences against the
// analytic backward pass. Used by the nn test suite to validate every layer
// and loss implementation.
#pragma once

#include <functional>

#include "nn/layer.hpp"

namespace fedra {

/// Max relative error between analytic parameter gradients and central
/// finite differences of `loss_fn` (which must run forward + return the
/// scalar loss for the network's current parameters).
///
/// The caller is responsible for making loss_fn deterministic. Typical use:
///   Workspace ws;
///   auto loss = [&] { return mse_loss(net.forward_cached(x, ws), y).value; };
///   net.zero_grad();
///   auto r = mse_loss(net.forward_cached(x, ws), y);
///   net.backward_cached(r.grad, ws);
///   double err = max_param_grad_error(net, loss);
double max_param_grad_error(Module& network,
                            const std::function<double()>& loss_fn,
                            double epsilon = 1e-6);

/// Same comparison for the gradient w.r.t. the *input*: perturbs entries of
/// `input`, re-evaluating loss_fn(input), against `analytic_input_grad`.
double max_input_grad_error(
    Matrix& input, const Matrix& analytic_input_grad,
    const std::function<double(const Matrix&)>& loss_fn,
    double epsilon = 1e-6);

}  // namespace fedra
