// Test-local f64 references, composed only from public pieces.
//
// ApDeepSense's moment pass: the dropout-linear prep (paper Eq. 10), gemm
// against W and against square(W), the bias add and variance clamp, then
// moment_activation_inplace with the propagator's own surrogate. It is the
// scalar-tier reference: with the kernel backend pinned to scalar (see
// ScalarKernelScope) the f64 engine (an InferenceSession running the
// dispatched moment tile) must reproduce it bit for bit — same expressions,
// same k-ascending accumulation order, a stored square(W) in place of the
// tile's in-kernel square. The avx2/avx512 tiers contract to FMA and only
// agree with it to ~1e-14 relative.
//
// The conv1d linear moments: the strided scalar loop the dispatched conv
// tile replaced (see reference_moment_conv1d_linear).
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "conv/conv1d.h"
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

/// The conv1d linear moments as the library computed them before the
/// dispatched conv tile: one strided scalar loop per output channel,
/// walking W down a column and summing taps k-major. The tile reorders
/// the sums (channel-major, W squared first), so it agrees with this
/// reference to rounding, not bit for bit.
inline MeanVar reference_moment_conv1d_linear(const Conv1dLayer& layer,
                                              const MeanVar& input,
                                              std::size_t in_len) {
  const std::size_t out_t = layer.out_len(in_len);
  const double p = layer.channel_keep_prob;
  MeanVar out(input.batch(), out_t * layer.out_channels);
  std::vector<double> partial_mean(layer.in_channels);
  for (std::size_t b = 0; b < input.batch(); ++b)
    for (std::size_t t = 0; t < out_t; ++t) {
      const double* mu = input.mean.data() + b * input.dim();
      const double* var = input.var.data() + b * input.dim();
      const std::size_t base = t * layer.stride * layer.in_channels;
      for (std::size_t oc = 0; oc < layer.out_channels; ++oc) {
        double var_indep = 0.0;
        std::fill(partial_mean.begin(), partial_mean.end(), 0.0);
        double mean_acc = 0.0;
        for (std::size_t k = 0; k < layer.kernel; ++k)
          for (std::size_t c = 0; c < layer.in_channels; ++c) {
            const std::size_t i = base + k * layer.in_channels + c;
            const double w = layer.weight(k * layer.in_channels + c, oc);
            partial_mean[c] += mu[i] * w;
            var_indep += var[i] * w * w;
            mean_acc += mu[i] * w;
          }
        double mask_var = 0.0;
        for (const double pm : partial_mean) mask_var += pm * pm;
        const double v = p * var_indep + p * (1.0 - p) * mask_var;
        out.mean(b, t * layer.out_channels + oc) =
            p * mean_acc + layer.bias(0, oc);
        out.var(b, t * layer.out_channels + oc) = v < 0.0 ? 0.0 : v;
      }
    }
  return out;
}

}  // namespace apds::testing
