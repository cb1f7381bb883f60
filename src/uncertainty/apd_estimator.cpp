#include "uncertainty/apd_estimator.h"

#include "obs/trace.h"

namespace apds {

ApdEstimator::ApdEstimator(const Mlp& mlp, ApDeepSenseConfig config,
                           double var_floor)
    : propagator_(mlp, config), var_floor_(var_floor) {
  APDS_CHECK(var_floor > 0.0);
}

PredictiveGaussian ApdEstimator::predict_regression(const Matrix& x) const {
  TraceSpan span("apd.predict_regression");
  if (span.active()) span.set_args("\"batch\":" + std::to_string(x.rows()));
  MeanVar out = session(global_precision())->propagate(x);
  PredictiveGaussian pred;
  pred.mean = std::move(out.mean);
  pred.var = std::move(out.var);
  for (double& v : pred.var.flat()) v = std::max(v, var_floor_);
  return pred;
}

PredictiveCategorical ApdEstimator::predict_classification(
    const Matrix& x) const {
  TraceSpan span("apd.predict_classification");
  if (span.active()) span.set_args("\"batch\":" + std::to_string(x.rows()));
  const MeanVar out = session(global_precision())->propagate(x);
  PredictiveCategorical pred;
  pred.probs = Matrix(out.batch(), out.dim());
  for (std::size_t r = 0; r < out.batch(); ++r) {
    const auto p = softmax_meanfield(out.row(r));
    std::copy(p.begin(), p.end(), pred.probs.row(r).begin());
  }
  return pred;
}

}  // namespace apds
