#include "nn/activation.h"

#include <cmath>

#include "common/error.h"
#include "stats/special.h"

namespace apds {

double activate(Activation act, double x) {
  switch (act) {
    case Activation::kIdentity: return x;
    case Activation::kRelu: return x > 0.0 ? x : 0.0;
    case Activation::kTanh: return std::tanh(x);
    case Activation::kSigmoid: return sigmoid(x);
  }
  throw InvalidArgument("unknown activation");
}

double activate_grad(Activation act, double x) {
  switch (act) {
    case Activation::kIdentity: return 1.0;
    case Activation::kRelu: return x > 0.0 ? 1.0 : 0.0;
    case Activation::kTanh: {
      const double t = std::tanh(x);
      return 1.0 - t * t;
    }
    case Activation::kSigmoid: {
      const double s = sigmoid(x);
      return s * (1.0 - s);
    }
  }
  throw InvalidArgument("unknown activation");
}

Matrix apply_activation(Activation act, const Matrix& x) {
  Matrix y = x;
  apply_activation_inplace(act, y.data(), y.size());
  return y;
}

void apply_activation_inplace(Activation act, double* x, std::size_t n) {
  // One switch per call, then activate()'s expression per element.
  switch (act) {
    case Activation::kIdentity: return;
    case Activation::kRelu:
      for (std::size_t i = 0; i < n; ++i) x[i] = x[i] > 0.0 ? x[i] : 0.0;
      return;
    case Activation::kTanh:
      for (std::size_t i = 0; i < n; ++i) x[i] = std::tanh(x[i]);
      return;
    case Activation::kSigmoid:
      for (std::size_t i = 0; i < n; ++i) x[i] = sigmoid(x[i]);
      return;
  }
  throw InvalidArgument("unknown activation");
}

Matrix activation_grad_matrix(Activation act, const Matrix& x) {
  Matrix g = x;
  for (double& v : g.flat()) v = activate_grad(act, v);
  return g;
}

std::string activation_name(Activation act) {
  switch (act) {
    case Activation::kIdentity: return "identity";
    case Activation::kRelu: return "relu";
    case Activation::kTanh: return "tanh";
    case Activation::kSigmoid: return "sigmoid";
  }
  throw InvalidArgument("unknown activation");
}

Activation parse_activation(const std::string& name) {
  if (name == "identity") return Activation::kIdentity;
  if (name == "relu") return Activation::kRelu;
  if (name == "tanh") return Activation::kTanh;
  if (name == "sigmoid") return Activation::kSigmoid;
  throw InvalidArgument("unknown activation name: " + name);
}

}  // namespace apds
