#include "core/apdeepsense.h"

namespace apds {

ApDeepSense::ApDeepSense(const Mlp& mlp, ApDeepSenseConfig config)
    : mlp_(&mlp), config_(config) {
  APDS_CHECK(config_.saturating_pieces >= 3);
  surrogates_.reserve(mlp.num_layers());
  for (std::size_t l = 0; l < mlp.num_layers(); ++l)
    surrogates_.push_back(PiecewiseLinear::for_activation(
        mlp.layer(l).act, config_.saturating_pieces));
}

ApDeepSense::ApDeepSense(const Mlp& mlp,
                         std::vector<PiecewiseLinear> surrogates)
    : mlp_(&mlp), surrogates_(std::move(surrogates)) {
  APDS_CHECK_MSG(surrogates_.size() == mlp.num_layers(),
                 "ApDeepSense: one surrogate per layer required");
}

std::shared_ptr<InferenceSession> ApDeepSense::session(
    Precision precision) const {
  const std::size_t idx = static_cast<std::size_t>(precision);
  MutexLock lk(&sessions_mu_);
  APDS_CHECK(idx < sessions_.size());
  if (!sessions_[idx]) {
    SessionConfig cfg;
    cfg.precision = precision;
    cfg.saturating_pieces = config_.saturating_pieces;
    sessions_[idx] =
        std::make_shared<InferenceSession>(*mlp_, surrogates_, cfg);
  }
  return sessions_[idx];
}

MeanVar ApDeepSense::propagate(const Matrix& x) const {
  return propagate(MeanVar::point(x));
}

MeanVar ApDeepSense::propagate(const MeanVar& input) const {
  return propagate(input, global_precision());
}

MeanVar ApDeepSense::propagate(const MeanVar& input,
                               Precision precision) const {
  return session(precision)->propagate(input);
}

GaussianVec ApDeepSense::propagate_one(std::span<const double> x) const {
  const MeanVar out = propagate(MeanVar::point(Matrix::row_vector(x)));
  return out.row(0);
}

const PiecewiseLinear& ApDeepSense::surrogate(std::size_t l) const {
  APDS_CHECK(l < surrogates_.size());
  return surrogates_[l];
}

}  // namespace apds
