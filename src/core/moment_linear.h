// Closed-form moments of a dropout linear layer (paper Eq. 6–10).
//
// Given independent inputs x_i ~ N(mu_i, sigma_i^2), Bernoulli keep-masks
// z_i ~ Bern(p), weights W and bias b, the output y = (x ∘ z) W + b has
//   E[y]   = (mu ∘ p) W + b
//   Var[y] = ((mu^2 + sigma^2) ∘ p  -  mu^2 ∘ p^2) W^2
// where W^2 is the elementwise square (paper's notation). Both are plain
// matrix products, which is the source of ApDeepSense's efficiency.
#pragma once

#include "core/gaussian_vec.h"
#include "nn/mlp.h"

namespace apds {

/// Propagate a batch of diagonal Gaussians through one dense layer's linear
/// part (weights, bias, dropout) — activation NOT applied. Both products
/// run through the runtime-dispatched f64 moment tile, which squares W
/// in-kernel, so no W∘W is stored. The scalar kernel tier is bit-identical
/// to the plain f64 GEMMs against W and square(W); avx2/avx512 contract to
/// FMA and agree with it to ~1e-14 relative.
MeanVar moment_linear(const MeanVar& input, const Matrix& weight,
                      const Matrix& bias, double keep_prob);

/// Raw-buffer core the Matrix overload delegates to (bit-identical): all
/// pointers are row-major blocks, `sm`/`vi` are caller-provided batch x
/// in_dim scratch (scaled mean / variance input of the two products), and
/// out_mean/out_var are batch x out_dim. No allocation, no shape checks —
/// InferenceSession and moment_rnn call it with arena-planned slices.
void moment_linear_into(const double* in_mean, const double* in_var,
                        std::size_t batch, std::size_t in_dim,
                        const double* weight, const double* bias,
                        std::size_t out_dim, double keep_prob, double* sm,
                        double* vi, double* out_mean, double* out_var);

/// Convenience overload taking the layer struct.
MeanVar moment_linear(const MeanVar& input, const DenseLayer& layer);

/// Single-vector variant.
GaussianVec moment_linear(const GaussianVec& input, const DenseLayer& layer);

}  // namespace apds
