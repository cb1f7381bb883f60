// Test-local f64 reference of ApDeepSense's moment pass, composed only
// from public pieces: the dropout-linear prep (paper Eq. 10), gemm against
// W and against square(W), the bias add and variance clamp, then
// moment_activation_inplace with the propagator's own surrogate. It is the
// scalar-tier reference: with the kernel backend pinned to scalar (see
// ScalarKernelScope) the f64 engine (an InferenceSession running the
// dispatched moment tile) must reproduce it bit for bit — same expressions,
// same k-ascending accumulation order, a stored square(W) in place of the
// tile's in-kernel square. The avx2/avx512 tiers contract to FMA and only
// agree with it to ~1e-14 relative.
#pragma once

#include <cstddef>
#include <vector>

#include "core/apdeepsense.h"
#include "core/gaussian_vec.h"
#include "core/moment_activation.h"
#include "nn/mlp.h"
#include "tensor/gemm.h"
#include "tensor/kernels/kernel_dispatch.h"
#include "tensor/ops.h"

namespace apds::testing {

/// Pins the process-wide kernel backend to the scalar tier for one scope,
/// so exact comparisons against this reference hold on any CPU.
struct ScalarKernelScope {
  ScalarKernelScope() { set_global_kernel_backend(KernelBackend::kScalar); }
  ~ScalarKernelScope() { clear_global_kernel_backend(); }
  ScalarKernelScope(const ScalarKernelScope&) = delete;
  ScalarKernelScope& operator=(const ScalarKernelScope&) = delete;
};

/// One dense layer's linear moments, activation not applied.
inline MeanVar reference_moment_linear(const MeanVar& input,
                                       const DenseLayer& layer) {
  const double p = layer.keep_prob;
  const double p2 = p * p;
  Matrix sm(input.batch(), input.dim());
  Matrix vi(input.batch(), input.dim());
  for (std::size_t i = 0; i < input.mean.size(); ++i) {
    const double mu = input.mean.data()[i];
    const double mu2 = mu * mu;
    sm.data()[i] = mu * p;
    vi.data()[i] = (mu2 + input.var.data()[i]) * p - mu2 * p2;
  }
  MeanVar out(input.batch(), layer.out_dim());
  gemm(sm, layer.weight, out.mean);
  for (std::size_t r = 0; r < out.batch(); ++r)
    for (std::size_t j = 0; j < out.dim(); ++j)
      out.mean(r, j) += layer.bias(0, j);
  gemm(vi, square(layer.weight), out.var);
  for (double& v : out.var.flat())
    if (v < 0.0) v = 0.0;
  return out;
}

/// The whole f64 pass through apd's network with apd's surrogates. When
/// `layer_outputs` is given it receives each layer's post-activation
/// distribution; the last one is also the return value.
inline MeanVar reference_propagate(const ApDeepSense& apd,
                                   const MeanVar& input,
                                   std::vector<MeanVar>* layer_outputs =
                                       nullptr) {
  const Mlp& mlp = apd.network();
  MeanVar h = input;
  if (layer_outputs) layer_outputs->clear();
  for (std::size_t l = 0; l < mlp.num_layers(); ++l) {
    h = reference_moment_linear(h, mlp.layer(l));
    moment_activation_inplace(apd.surrogate(l), h);
    if (layer_outputs) layer_outputs->push_back(h);
  }
  return h;
}

}  // namespace apds::testing
