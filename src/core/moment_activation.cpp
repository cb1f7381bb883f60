#include "core/moment_activation.h"

#include <algorithm>
#include <cmath>

#include "core/moment_contract.h"
#include "obs/trace.h"
#include "platform/thread_pool.h"
#include "stats/gaussian.h"

namespace apds {

namespace {

/// Near-deterministic input: local linearization around a point mass —
/// mean f(mu), variance k^2 sigma^2 of the piece containing mu.
ScalarMoments deterministic_moments(const PiecewiseLinear& f, double mu,
                                    double var) {
  ScalarMoments out;
  for (const auto& p : f.pieces()) {
    if (mu < p.hi || &p == &f.pieces().back()) {
      out.mean = p.eval(mu);
      out.var = p.k * p.k * var;
      break;
    }
  }
  return out;
}

/// Clamp a piece (a, b)'s partial moments to their exact bounds:
/// E[X; a<X<b] lies in [a D, b D] and E[X^2; a<X<b] between D times the
/// min and max of x^2 on (a, b). At a variance past ~1e20 a finite piece's
/// sigma^2 (D + alpha phi(alpha) - beta phi(beta)) and sigma (phi(alpha) -
/// phi(beta)) are rounding noise scaled by sigma^2, and the bounds restore
/// the saturating surrogates' two-point limit. An infinite end gives an
/// infinite or NaN (inf * 0) bound, which no comparison selects, and a NaN
/// moment passes through. The act_tile_f64 kernels apply the same clamp.
void clamp_to_piece(double a, double b, double mass, double& ex1,
                    double& ex2) {
  const double lo1 = a * mass;
  const double hi1 = b * mass;
  const double a2 = a * a;
  const double b2 = b * b;
  const double lo2 = (a < 0.0 && b > 0.0 ? 0.0 : (a2 < b2 ? a2 : b2)) * mass;
  const double hi2 = (a2 > b2 ? a2 : b2) * mass;
  ex1 = ex1 < lo1 ? lo1 : (ex1 > hi1 ? hi1 : ex1);
  ex2 = ex2 < lo2 ? lo2 : (ex2 > hi2 ? hi2 : ex2);
}

// Minimum elements per parallel chunk; one element costs ~P phi/Phi pairs.
constexpr std::size_t kActivationGrain = 256;

/// The batch driver of both precisions. The dispatched tile (`tile`, one of
/// the KernelOps act_tile_* entries) does the math; this keeps what the
/// kernel layer must not know about: the thread-pool partitioning, the
/// PiecewiseLinear type, and the f64 scalar fixup of the lanes the tile
/// flags as near-deterministic (var < det_var).
template <typename T>
void activation_batch(const PiecewiseLinear& f, T* mean, T* var,
                      std::size_t n,
                      bool (*tile)(const PwlView&, T*, T*, std::size_t, T,
                                   unsigned char*),
                      T det_var) {
  for (std::size_t i = 0; i < n; ++i)
    APDS_CHECK_MSG(var[i] >= T(0),
                   "moment_activation: negative or NaN variance");
  const PwlView view = f.view();
  parallel_for(0, n, kActivationGrain, [&](std::size_t lo, std::size_t hi) {
    unsigned char det[kKernelMomentTile];
    for (std::size_t t = lo; t < hi; t += kKernelMomentTile) {
      const std::size_t len = std::min(kKernelMomentTile, hi - t);
      if (!tile(view, mean + t, var + t, len, det_var, det)) continue;
      // Near-deterministic lanes still hold their input moments.
      for (std::size_t i = 0; i < len; ++i) {
        if (!det[i]) continue;
        const ScalarMoments sm =
            activation_moments(f, static_cast<double>(mean[t + i]),
                               static_cast<double>(var[t + i]));
        mean[t + i] = static_cast<T>(sm.mean);
        var[t + i] = static_cast<T>(sm.var);
      }
    }
  });
}

}  // namespace

ScalarMoments activation_moments(const PiecewiseLinear& f, double mu,
                                 double var) {
  APDS_CHECK_MSG(var >= 0.0, "activation_moments: negative variance");
  if (var < kDeterministicVar) return deterministic_moments(f, mu, var);

  const double sigma = std::sqrt(var);
  const double inv_sigma = 1.0 / sigma;
  double ey = 0.0;
  double ey2 = 0.0;
  // Adjacent pieces share a boundary: carry the previous piece's hi
  // evaluation as the next piece's lo instead of recomputing it.
  BoundaryEval lo = eval_boundary(f.pieces().front().lo, mu, inv_sigma);
  for (const auto& p : f.pieces()) {
    const BoundaryEval hi = eval_boundary(p.hi, mu, inv_sigma);
    const PartialMoments pm = truncated_moments_between(lo, hi, sigma);
    lo = hi;
    // Exact zeros: a piece the whole distribution misses contributes
    // nothing; skipping it is an identity, not a tolerance question.
    // apds-lint: allow(float-equal)
    if (pm.mass <= 0.0 && pm.first == 0.0 && pm.second == 0.0) continue;
    // E[X 1] and E[X^2 1] from central partial moments.
    double ex1 = mu * pm.mass + pm.first;
    double ex2 = pm.second + 2.0 * mu * pm.first + mu * mu * pm.mass;
    clamp_to_piece(p.lo, p.hi, pm.mass, ex1, ex2);
    ey += p.k * ex1 + p.c * pm.mass;
    ey2 += p.k * p.k * ex2 + 2.0 * p.k * p.c * ex1 + p.c * p.c * pm.mass;
  }
  // Clamp cancellation below zero, but let a NaN through (a non-finite
  // mean or an infinite variance), as the batch tiles do.
  const double vv = ey2 - ey * ey;
  ScalarMoments out;
  out.mean = ey;
  out.var = vv < 0.0 ? 0.0 : vv;
  return out;
}

void moment_activation_batch(const PiecewiseLinear& f, double* mean,
                             double* var, std::size_t n) {
  activation_batch(f, mean, var, n, kernel_ops().act_tile_f64,
                   kDeterministicVar);
}

void moment_activation_batch(const PiecewiseLinear& f, float* mean,
                             float* var, std::size_t n) {
  activation_batch(f, mean, var, n, kernel_ops().act_tile_f32,
                   kDeterministicVarF);
}

void moment_activation_inplace(const PiecewiseLinear& f, MeanVar& mv) {
  APDS_TRACE_SCOPE("core.moment_activation");
  moment_activation_batch(f, mv.mean.data(), mv.var.data(), mv.mean.size());
  APDS_MOMENT_CONTRACT(mv, "core.moment_activation output");
}

void moment_activation_inplace(const PiecewiseLinear& f, MeanVarF& mv) {
  APDS_TRACE_SCOPE("core.moment_activation_f32");
  moment_activation_batch(f, mv.mean.data(), mv.var.data(), mv.mean.size());
  APDS_MOMENT_CONTRACT(mv, "core.moment_activation_f32 output");
}

void moment_activation_inplace(const PiecewiseLinear& f, GaussianVec& g) {
  moment_activation_batch(f, g.mean.data(), g.var.data(), g.dim());
}

}  // namespace apds
