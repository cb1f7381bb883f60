// MCDrop-k: the sampling-based baseline (Gal & Ghahramani), paper Section
// II-B. Runs the stochastic network k times with fresh dropout masks and
// summarizes the samples.
//
// The k passes run batched: a group of samples is stacked as rows, so each
// layer is one product on the dispatched f64 GEMM tile with per-row
// Bernoulli masks. Sample s draws its masks from its own stream in the
// order Mlp::forward_stochastic (the per-sample reference) does, so it is
// that pass's output for the same stream: bit-identical on the scalar
// kernel tier, within FMA rounding on avx2/avx512.
#pragma once

#include <vector>

#include "common/rng.h"
#include "nn/mlp.h"
#include "uncertainty/estimator.h"

namespace apds {

/// Raw MCDrop forward samples for a batch: samples[s] is the network output
/// of pass s, shape [batch, out]. Collecting once and summarizing prefixes
/// lets one k_max-pass run stand in for every smaller k (used by the table
/// benches so MCDrop-3/5/10/30/50 share passes).
///
/// Groups of max(1, 64 / batch) samples run as one stacked pass each, on
/// the global thread pool. Sample s always draws its dropout masks from
/// the s-th serial split of `rng` (its own decorrelated stream), so the
/// collected samples — and `rng`'s state on return — are identical for
/// every thread count.
std::vector<Matrix> mcdrop_collect(const Mlp& mlp, const Matrix& x,
                                   std::size_t k, Rng& rng);

/// Summarize the first `k` of the collected samples into a Gaussian
/// predictive: per-element sample mean and unbiased sample variance, floored
/// at `var_floor`. Requires k >= 2. Allocates only the returned matrices.
PredictiveGaussian mcdrop_regression_from_samples(
    std::span<const Matrix> samples, std::size_t k, double var_floor = 1e-6);

/// Summarize the first `k` samples into a categorical predictive by
/// averaging per-pass softmax probabilities. Allocates only the returned
/// matrix.
PredictiveCategorical mcdrop_classification_from_samples(
    std::span<const Matrix> samples, std::size_t k);

/// The estimator interface bound to a fixed k. Each predict call uses a
/// split of the seed RNG, so repeated calls are independent but the whole
/// object is deterministic for a given construction seed. When all k
/// samples fit one stacked group (k * batch <= 64: batch-1 serving), the
/// predictive is summarized straight from the stacked block in the
/// thread's scratch, and a warmed-up call allocates only the returned
/// matrices; otherwise it goes through mcdrop_collect, with the same bits.
class McDrop final : public UncertaintyEstimator {
 public:
  McDrop(const Mlp& mlp, std::size_t k, std::uint64_t seed,
         double var_floor = 1e-6);

  std::string name() const override;
  PredictiveGaussian predict_regression(const Matrix& x) const override;
  PredictiveCategorical predict_classification(const Matrix& x) const override;

  std::size_t k() const { return k_; }

 private:
  const Mlp* mlp_;
  std::size_t k_;
  double var_floor_;
  mutable Rng rng_;
};

}  // namespace apds
