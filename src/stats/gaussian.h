// Gaussian density utilities and truncated-Gaussian partial moments.
//
// The partial moments (probability mass, first and second central moments of
// a Gaussian restricted to an interval) are exactly the D_p, M_p, V_p
// quantities of the paper (Eq. 23–25); they are the analytic backbone of the
// piece-wise-linear activation propagation in src/core.
#pragma once

namespace apds {

inline constexpr double kSqrt2 = 1.4142135623730951;
inline constexpr double kSqrt2Pi = 2.5066282746310002;
inline constexpr double kLog2Pi = 1.8378770664093453;

/// Standard normal pdf at z.
double std_normal_pdf(double z);

/// Standard normal cdf at z (via erf).
double std_normal_cdf(double z);

/// N(x; mu, sigma^2) density. Requires sigma > 0.
double normal_pdf(double x, double mu, double sigma);

/// log N(x; mu, sigma^2). Requires sigma > 0.
double normal_log_pdf(double x, double mu, double sigma);

/// Gaussian negative log-likelihood with variance parameterization.
/// Equals -log N(x; mu, var). Requires var > 0.
double gaussian_nll(double x, double mu, double var);

/// Half-width z of the centered standard-normal interval with coverage
/// `level`: P(|Z| <= z) = level. Requires 0 < level < 1. Used by the
/// calibration curve (metrics/calibration.h).
double central_interval_z(double level);

/// Partial moments of X ~ N(mu, sigma^2) over the interval [a, b]
/// (a may be -inf, b may be +inf):
///   mass   = P(a <= X <= b)                                (paper's D_p)
///   first  = E[(X - mu) * 1{a<=X<=b}]                      (paper's M_p)
///   second = E[(X - mu)^2 * 1{a<=X<=b}]                    (paper's V_p)
struct PartialMoments {
  double mass = 0.0;
  double first = 0.0;
  double second = 0.0;
};

/// Compute the partial moments above. Requires sigma > 0 and a <= b.
PartialMoments truncated_moments(double a, double b, double mu, double sigma);

/// One standardized truncation boundary with the erf/exp terms cached.
/// Adjacent pieces of a piece-wise-linear surrogate share a boundary
/// (piece j's hi is piece j+1's lo), so evaluating each boundary once and
/// differencing halves the transcendental work of an activation pass.
struct BoundaryEval {
  double pdf = 0.0;   ///< phi(z); 0 at +-inf
  double cdf = 0.0;   ///< Phi(z)
  double zpdf = 0.0;  ///< z * phi(z) with the inf * 0 -> 0 convention
};

/// Evaluate the boundary x of X ~ N(mu, sigma^2); `inv_sigma` = 1/sigma is
/// hoisted by callers that evaluate many boundaries per element.
BoundaryEval eval_boundary(double x, double mu, double inv_sigma);

/// Partial moments between two prepared boundaries (lo's x <= hi's x).
/// truncated_moments(a, b, mu, sigma) equals
/// truncated_moments_between(eval_boundary(a, ...), eval_boundary(b, ...)).
PartialMoments truncated_moments_between(const BoundaryEval& lo,
                                         const BoundaryEval& hi, double sigma);

}  // namespace apds
