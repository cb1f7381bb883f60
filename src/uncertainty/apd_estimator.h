// UncertaintyEstimator adapter over the analytic ApDeepSense propagator.
//
// Prediction runs through the propagator's per-precision InferenceSessions
// (planned arenas, zero steady-state allocations inside propagate), so the
// estimator and its ApDeepSense share one session per precision. The
// propagator also serves callers that need its explicit-precision or
// Gaussian-input surface (e.g. the input-noise bench).
#pragma once

#include <memory>

#include "core/apdeepsense.h"
#include "core/inference_session.h"
#include "core/softmax_approx.h"
#include "uncertainty/estimator.h"

namespace apds {

/// Sampling-free estimator: one analytic pass per batch.
class ApdEstimator final : public UncertaintyEstimator {
 public:
  explicit ApdEstimator(const Mlp& mlp, ApDeepSenseConfig config = {},
                        double var_floor = 1e-6);

  std::string name() const override { return "ApDeepSense"; }

  PredictiveGaussian predict_regression(const Matrix& x) const override;
  PredictiveCategorical predict_classification(const Matrix& x) const override;

  const ApDeepSense& propagator() const { return propagator_; }

  /// The session backing predict_* at `precision`: propagator().session()
  /// (built on first use). Serving loops that reuse an output batch call
  /// its propagate(input, out) directly.
  std::shared_ptr<InferenceSession> session(Precision precision) const {
    return propagator_.session(precision);
  }

 private:
  ApDeepSense propagator_;
  double var_floor_;
};

}  // namespace apds
