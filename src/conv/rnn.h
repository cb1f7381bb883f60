// Recurrent extension (paper Section VI future work): an Elman-style RNN
// cell with recurrent dropout, plus closed-form moment propagation.
//
//   h_t = f( x_t U + (h_{t-1} ∘ z_t) V + b ),   z_t ~ Bernoulli(p)
//
// Dropout variant: we resample the recurrent mask at every step (per-step
// dropout). Gal & Ghahramani's recurrent dropout shares one mask across
// all steps of a sequence; with a shared mask the step-to-step terms are
// strongly correlated and no per-step closed form exists, so the tractable
// per-step variant is what the analytic extension models — the same kind
// of independence assumption the paper already makes across units.
// Moments propagate step by step: the recurrent linear part uses the
// paper's dropout-linear formulas (moment_linear_into), the input part is an
// exact affine map of the (deterministic) input, and the activation uses
// the PWL closed form. Temporal correlation of h_t is ignored
// (diagonal-Gaussian state), mirroring the paper's diagonal assumption.
#pragma once

#include "common/rng.h"
#include "core/gaussian_vec.h"
#include "core/piecewise_linear.h"
#include "nn/activation.h"
#include "tensor/matrix.h"

namespace apds {

struct RnnCell {
  Matrix w_in;   ///< [input_dim, hidden]
  Matrix w_rec;  ///< [hidden, hidden]
  Matrix bias;   ///< [1, hidden]
  Activation act = Activation::kTanh;
  /// Keep-probability of each recurrent unit (the dropout is on h_{t-1}).
  double rec_keep_prob = 0.9;

  std::size_t input_dim() const { return w_in.rows(); }
  std::size_t hidden_dim() const { return w_in.cols(); }
  /// Validate shapes and rec_keep_prob; throws InvalidArgument naming the
  /// argument and its value.
  void check() const;
};

/// Build a cell with Glorot-style initialization.
RnnCell make_rnn_cell(std::size_t input_dim, std::size_t hidden_dim,
                      Activation act, double rec_keep_prob, Rng& rng);

/// Deterministic pass over a sequence stored step-interleaved
/// ([batch, steps * input_dim]); dropout expectation folded in. Returns the
/// final hidden state [batch, hidden].
Matrix rnn_forward(const RnnCell& cell, const Matrix& x_seq,
                   std::size_t steps);

/// One stochastic pass with fresh per-step recurrent masks.
Matrix rnn_forward_stochastic(const RnnCell& cell, const Matrix& x_seq,
                              std::size_t steps, Rng& rng);

/// Closed-form moments of the final hidden state under per-step recurrent
/// dropout, using `surrogate` for the activation. Wraps the in-place form.
MeanVar moment_rnn(const RnnCell& cell, const Matrix& x_seq,
                   std::size_t steps, const PiecewiseLinear& surrogate);

/// In-place form: `out` is resized to [batch, hidden] and keeps its
/// capacity, so a warm call into a reused `out` performs no heap
/// allocation. The cell, steps and sequence width are checked once,
/// before any work (InvalidArgument naming the argument and its value),
/// and a non-finite sequence value throws MomentContractViolation.
/// All steps' input maps are one [batch * steps, input_dim] x W_in product
/// over x_seq read in place, on the dispatched f64 GEMM tile
/// (kernel_ops().gemm_tile_f64: bit-identical to gemm_buffers on the
/// scalar tier, FMA-contracted on avx2/avx512); each step then runs
/// moment_linear_into on the recurrent part and the dispatched f64
/// activation tile, ping-ponging one hidden-state slot pair in the
/// thread's scratch arena. Bit-identical across pool widths within a
/// kernel tier.
void moment_rnn(const RnnCell& cell, const Matrix& x_seq, std::size_t steps,
                const PiecewiseLinear& surrogate, MeanVar& out);

}  // namespace apds
