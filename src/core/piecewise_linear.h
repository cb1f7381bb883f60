// Piece-wise linear functions and fitters for activation approximation.
//
// ApDeepSense needs every activation in piece-wise linear form so that the
// moments of f(X), X ~ N(mu, sigma^2), have closed-form expressions
// (paper Section III-D). ReLU is already exactly PWL; Tanh and Sigmoid are
// approximated by P pieces with constant tails, in the spirit of the
// Amin–Curtis–Hayes-Gill construction the paper cites, but with two
// refinements that matter when the surrogate is applied at *every layer*:
// breakpoints are placed adaptively (split-the-worst-piece + equal-error
// relaxation), and each piece is a Gaussian-weighted least-squares line
// rather than an interpolating secant. Chords of a saturating activation
// systematically undershoot it, and that one-sided bias compounds across
// layers; the weighted LS fit is (near) zero-mean where pre-activations
// concentrate, which keeps deep means faithful.
#pragma once

#include <functional>
#include <vector>

#include "nn/activation.h"
#include "tensor/kernels/kernel_dispatch.h"

namespace apds {

/// One linear piece y = k*x + c on [lo, hi).
struct LinearPiece {
  double lo = 0.0;  ///< -inf allowed on the first piece
  double hi = 0.0;  ///< +inf allowed on the last piece
  double k = 0.0;
  double c = 0.0;

  double eval(double x) const { return k * x + c; }
};

/// A continuous-domain piece-wise linear function covering (-inf, +inf).
class PiecewiseLinear {
 public:
  /// Builds from pieces; validates that they tile the real line in order.
  explicit PiecewiseLinear(std::vector<LinearPiece> pieces);

  /// Exact identity (one piece).
  static PiecewiseLinear identity();

  /// Exact ReLU (two pieces), the paper's DNN-ReLU case.
  static PiecewiseLinear relu();

  /// Approximation of `f` on [-range, range] with `pieces` pieces:
  /// pieces-2 interior weighted-least-squares segments on adaptively
  /// placed breakpoints plus two constant tails. Requires pieces >= 3.
  static PiecewiseLinear fit_saturating(const std::function<double(double)>& f,
                                        std::size_t pieces, double range);

  /// As fit_saturating, but the fit/error weighting is a Gaussian centered
  /// on `weight_mu` with stddev `weight_sigma` (plus a uniform floor) —
  /// used by adaptive surrogate calibration to match a layer's actual
  /// pre-activation distribution. Requires weight_sigma > 0.
  static PiecewiseLinear fit_saturating_weighted(
      const std::function<double(double)>& f, std::size_t pieces, double range,
      double weight_mu, double weight_sigma);

  /// 7-piece tanh approximation used in all the paper's experiments.
  static PiecewiseLinear tanh_default() { return fit_tanh(7); }

  /// Tanh approximation with a chosen piece count (ablation knob).
  static PiecewiseLinear fit_tanh(std::size_t pieces, double range = 3.0);

  /// Sigmoid approximation.
  static PiecewiseLinear fit_sigmoid(std::size_t pieces, double range = 6.0);

  /// The PWL surrogate for an activation: exact for identity/ReLU,
  /// `tanh_pieces`-piece fits for tanh/sigmoid.
  static PiecewiseLinear for_activation(Activation act,
                                        std::size_t tanh_pieces = 7);

  std::size_t num_pieces() const { return pieces_.size(); }
  const LinearPiece& piece(std::size_t i) const { return pieces_[i]; }
  const std::vector<LinearPiece>& pieces() const { return pieces_; }

  /// The surrogate in the dispatched kernels' layout: a view over
  /// boundary/slope/intercept arrays built once at construction, valid
  /// while this object lives. Allocation-free, so hot callers take it per
  /// call.
  PwlView view() const {
    return {pieces_.front().lo, hi_.data(), k_.data(), c_.data(),
            pieces_.size()};
  }

  /// Evaluate the surrogate at x.
  double eval(double x) const;

  /// Max |f(x) - eval(x)| over a uniform grid (fit-quality diagnostic).
  double max_error_against(const std::function<double(double)>& f, double lo,
                           double hi, std::size_t grid = 2048) const;

 private:
  std::vector<LinearPiece> pieces_;
  std::vector<double> hi_, k_, c_;  ///< pieces_ split per field (view())
};

}  // namespace apds
