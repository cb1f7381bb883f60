// Activation functions for the MLP substrate.
#pragma once

#include <cstddef>
#include <string>

#include "tensor/matrix.h"

namespace apds {

enum class Activation { kIdentity, kRelu, kTanh, kSigmoid };

/// Scalar activation value.
double activate(Activation act, double x);

/// Derivative of the activation at pre-activation x.
double activate_grad(Activation act, double x);

/// Apply the activation elementwise, returning a new matrix.
Matrix apply_activation(Activation act, const Matrix& x);

/// Apply the activation to x[0, n) in place; every element gets exactly
/// activate(act, x[i]).
void apply_activation_inplace(Activation act, double* x, std::size_t n);

/// Elementwise derivative at the given pre-activations.
Matrix activation_grad_matrix(Activation act, const Matrix& x);

/// Human-readable name, e.g. "relu". Round-trips with parse_activation.
std::string activation_name(Activation act);

/// Parse a name produced by activation_name. Throws InvalidArgument.
Activation parse_activation(const std::string& name);

}  // namespace apds
