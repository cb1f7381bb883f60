// Closed-form moments of a 1-D convolution with convolutional dropout —
// the analytic piece the paper leaves as future work (Section VI).
//
// For one output unit,
//   y = sum_c z_c * S_c + b,   S_c = sum_k x[t+k, c] W[k, c, oc],
// with z_c ~ Bernoulli(p) shared across taps of channel c and inputs
// x ~ N(mu, sigma^2) treated as independent (the same diagonal assumption
// the paper makes for dense layers). Unlike the dense case (paper Eq. 10),
// the taps of one channel share a mask, so their covariance does not
// vanish. Working it out:
//   E[y]   = p * conv(mu, W) + b
//   Var[y] = sum_c [ p * sum_k sigma^2 W^2  +  p(1-p) * (sum_k mu W)^2 ]
// The first term is a convolution with squared weights over the input
// variances; the second is the per-channel partial mean-convolution,
// squared — the cross-tap covariance correction. With p = 1 it reduces to
// the plain independent-sum variance, and with kernel = 1 it reduces
// exactly to the paper's dense formula.
//
// Tier contract. The linear part runs on the runtime-dispatched
// KernelOps::moment_conv_tile_f64 (scalar/avx2/avx512), which reads each
// window in place (no im2col copy) and squares W in registers. Work is
// split into fixed (batch row, window run) units, so results are
// bit-identical across pool widths within a tier; avx2/avx512 contract to
// FMA and agree with the scalar tier to ~1e-15 relative.
#pragma once

#include "conv/conv1d.h"
#include "core/gaussian_vec.h"
#include "core/piecewise_linear.h"

namespace apds {

/// Linear-part moments of a conv layer (activation NOT applied). Input and
/// output use the channel-interleaved layout of conv1d.h. Validates the
/// layer (Conv1dLayer::check), in_len >= kernel and the input width once,
/// before any work; each failure is an InvalidArgument naming the argument
/// and its value.
MeanVar moment_conv1d_linear(const Conv1dLayer& layer, const MeanVar& input,
                             std::size_t in_len);

/// Raw-buffer core of moment_conv1d_linear: in_mean/in_var are batch x
/// (in_len * in_channels), out_mean/out_var batch x (out_len * out_channels),
/// all row-major. No allocation and no checks — the caller has validated
/// the layer and the shapes (ConvApDeepSense does so once per call).
void moment_conv1d_linear_into(const Conv1dLayer& layer,
                               const double* in_mean, const double* in_var,
                               std::size_t batch, std::size_t in_len,
                               double* out_mean, double* out_var);

/// Full layer: linear moments followed by the closed-form PWL activation
/// moments using `surrogate` (use PiecewiseLinear::for_activation).
MeanVar moment_conv1d(const Conv1dLayer& layer, const MeanVar& input,
                      std::size_t in_len, const PiecewiseLinear& surrogate);

}  // namespace apds
