// Closed-form moments of a piece-wise linear activation of a Gaussian
// (paper Section III-D, Eq. 11–26).
//
// For X ~ N(mu, sigma^2) and a PWL function f with pieces y = k_p x + c_p on
// (a_p, b_p), the output moments decompose over pieces using the truncated-
// Gaussian partial moments D_p (mass), M_p (first) and V_p (second):
//   E[Y]   = sum_p  k_p (mu D_p + M_p) + c_p D_p
//   E[Y^2] = sum_p  k_p^2 (V_p + 2 mu M_p + mu^2 D_p)
//                 + 2 k_p c_p (mu D_p + M_p) + c_p^2 D_p
//   Var[Y] = E[Y^2] - E[Y]^2
// This is algebraically identical to the paper's Eq. 18/20/21/22 route but
// evaluated in x-space, which avoids the k_p = 0 special case blowing up.
#pragma once

#include "core/gaussian_vec.h"
#include "core/piecewise_linear.h"
#include "tensor/kernels/kernel_dispatch.h"

namespace apds {

/// Mean and variance of f(X) for X ~ N(mu, sigma^2). A near-deterministic
/// input (sigma^2 below `kDeterministicVar`) short-circuits to a local
/// linearization: mean f(mu), variance k^2 sigma^2 of the piece containing mu.
struct ScalarMoments {
  double mean = 0.0;
  double var = 0.0;
};

inline constexpr double kDeterministicVar = 1e-18;

/// f32 fast-path threshold for the same short-circuit. Larger than the f64
/// one because the E[Y^2] - E[Y]^2 cancellation loses accuracy at f32
/// epsilon (~1.2e-7) relative; below this variance the linearization is
/// more accurate than the closed form evaluated in single precision.
inline constexpr float kDeterministicVarF = 1e-12f;

/// The single-value closed form, evaluated with libm erfc/exp. It is the
/// independent accuracy oracle of the batched paths below, and the fixup
/// they use for near-deterministic lanes. Throws InvalidArgument on a
/// negative or NaN variance. Non-finite inputs follow the batch paths'
/// hostile-lane contract below: with var >= kDeterministicVar, a NaN or
/// +-Inf mean, or a +Inf variance, gives a NaN variance.
ScalarMoments activation_moments(const PiecewiseLinear& f, double mu,
                                 double var);

/// The batched kernel behind the f64 moment_activation_inplace overloads
/// and every f64 caller (InferenceSession, moment_conv1d, moment_rnn):
/// overwrite (mean[i], var[i]), i in [0, n), with the activation moments.
///
/// Elements are partitioned across the thread pool, and each worker walks
/// its span in kKernelMomentTile tiles through the runtime-dispatched
/// act_tile_f64 (tensor/kernels/, scalar/AVX2/AVX-512 tiers of one shared
/// body): per tile, every boundary of the surrogate is standardized and
/// its phi/Phi evaluated once, branch-free and without libm (a Cody
/// rational erfc sharing one polynomial exp(-z^2/2) with the pdf), then
/// per-piece contributions are formed by differencing adjacent boundary
/// evaluations. Lanes with var < kDeterministicVar are finished by
/// activation_moments. Every element's arithmetic is independent of its
/// neighbours, so results are bit-identical across thread counts within a
/// tier; across tiers (FMA contraction) and against activation_moments
/// they agree to ~1e-15 relative (docs/PERFORMANCE.md).
///
/// Hostile-lane contract, the same on every tier:
///   * a negative or NaN variance anywhere throws InvalidArgument before
///     any element is written;
///   * otherwise nothing throws, and non-finite inputs come back
///     non-finite. With a variance at or above kDeterministicVar, a NaN or
///     +-Inf mean yields a NaN variance and a NaN mean (+-Inf for the
///     identity surrogate), and a +Inf variance yields NaN for both. A
///     near-deterministic lane takes the linearization (f(mu), k^2 var),
///     so a non-finite mean stays non-finite and its variance finite;
///   * zero and denormal variances take that linearization exactly. A huge
///     finite variance (1e20, 1e30) stays finite and meaningful: each
///     piece's partial moments are clamped to their exact bounds (in
///     activation_moments too), so a saturating surrogate returns its
///     two-point limit (tanh-7: mean ~0, variance ~1) instead of the
///     rounding noise sigma^2 would otherwise scale up.
void moment_activation_batch(const PiecewiseLinear& f, double* mean,
                             double* var, std::size_t n);

/// Single-precision fast path: the same driver over the dispatched
/// act_tile_f32 (branch-free fast_math erf/exp in f32). Near-deterministic
/// lanes (var below `kDeterministicVarF`) fall back to the f64 scalar
/// activation_moments. Allocation-free.
void moment_activation_batch(const PiecewiseLinear& f, float* mean,
                             float* var, std::size_t n);

/// Apply activation_moments elementwise across a batch, in place.
void moment_activation_inplace(const PiecewiseLinear& f, MeanVar& mv);

/// Single-precision batched variant, in place (f32 fast path).
void moment_activation_inplace(const PiecewiseLinear& f, MeanVarF& mv);

/// Single-vector variant, in place.
void moment_activation_inplace(const PiecewiseLinear& f, GaussianVec& g);

}  // namespace apds
