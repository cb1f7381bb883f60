// ApDeepSense: sampling-free uncertainty propagation through a pre-trained
// dropout MLP (the paper's primary contribution, Section III).
//
// A single analytic pass alternates the closed-form dropout-linear moments
// (moment_linear) with the closed-form PWL activation moments
// (moment_activation), producing the full diagonal-Gaussian predictive
// distribution at the output. No retraining, no sampling.
#pragma once

#include <array>
#include <memory>
#include <vector>

#include "common/mutex.h"
#include "common/precision.h"
#include "common/thread_annotations.h"
#include "core/gaussian_vec.h"
#include "core/inference_session.h"
#include "core/moment_activation.h"
#include "core/moment_linear.h"
#include "core/piecewise_linear.h"
#include "nn/mlp.h"

namespace apds {

struct ApDeepSenseConfig {
  /// Piece count for the tanh/sigmoid surrogates (paper uses 7).
  std::size_t saturating_pieces = 7;
};

/// Analytic uncertainty propagator bound to one network.
///
/// The surrogate PWL functions are resolved once per distinct activation at
/// construction. propagate() at every precision runs the InferenceSession
/// that session() builds from this object's surrogates, so there is
/// exactly one engine per precision.
class ApDeepSense {
 public:
  explicit ApDeepSense(const Mlp& mlp, ApDeepSenseConfig config = {});

  /// Bind with explicit per-layer surrogates (one per weight layer), e.g.
  /// from calibrate_surrogates() in adaptive_surrogate.h. Every precision,
  /// including the sessions, uses these surrogates.
  ApDeepSense(const Mlp& mlp, std::vector<PiecewiseLinear> surrogates);

  /// Propagate a deterministic input batch; returns the Gaussian output.
  /// Runs in the ambient global_precision() (see overload below).
  MeanVar propagate(const Matrix& x) const;

  /// Propagate an uncertain (Gaussian) input batch — e.g. sensor noise
  /// models feeding uncertainty in at the input. Runs
  /// session(global_precision()): kF64 is the bit-exact reference path;
  /// kF32 and kI8 run fused single-precision kernels (or i8 hidden layers
  /// with an f32 moment head) and widen the result.
  MeanVar propagate(const MeanVar& input) const;

  /// Propagate at an explicit precision regardless of the global setting.
  /// API types stay double either way.
  MeanVar propagate(const MeanVar& input, Precision precision) const;

  /// Single-input convenience.
  GaussianVec propagate_one(std::span<const double> x) const;

  /// The session for `precision`, built on first use (thread-safe) from
  /// the bound network and this object's surrogates. A process that only
  /// ever runs one precision pays for exactly one pack. propagate() runs
  /// this session, and ApdEstimator shares it.
  std::shared_ptr<InferenceSession> session(Precision precision) const;

  const Mlp& network() const { return *mlp_; }
  const ApDeepSenseConfig& config() const { return config_; }

  /// The PWL surrogate used for layer l's activation.
  const PiecewiseLinear& surrogate(std::size_t l) const;

 private:
  const Mlp* mlp_;  ///< non-owning; must outlive this object
  ApDeepSenseConfig config_;
  std::vector<PiecewiseLinear> surrogates_;  ///< one per layer

  mutable Mutex sessions_mu_;
  mutable std::array<std::shared_ptr<InferenceSession>, 3> sessions_
      APDS_GUARDED_BY(sessions_mu_);
};

}  // namespace apds
