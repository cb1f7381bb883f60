#include "core/apdeepsense.h"

#include "core/moment_contract.h"
#include "obs/flight_recorder.h"
#include "obs/perf_counters.h"
#include "obs/trace.h"
#include "tensor/ops.h"

namespace apds {

namespace {

/// Chrome-trace args for one dense moment-propagation layer.
std::string layer_span_args(std::size_t l, const DenseLayer& layer) {
  return "\"layer\":" + std::to_string(l) +
         ",\"in\":" + std::to_string(layer.in_dim()) +
         ",\"out\":" + std::to_string(layer.out_dim()) + ",\"act\":\"" +
         activation_name(layer.act) + "\"";
}

}  // namespace

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

const std::vector<Matrix>& ApDeepSense::f64_pack() const {
  std::call_once(f64_once_, [&] {
    const std::size_t layers = mlp_->num_layers();
    weight_sq_.reserve(layers);
    for (std::size_t l = 0; l < layers; ++l)
      weight_sq_.push_back(square(mlp_->layer(l).weight));
  });
  return weight_sq_;
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
  if (precision == Precision::kF64) return propagate_f64(input);
  return session(precision)->propagate(input);
}

MeanVar ApDeepSense::propagate_f64(const MeanVar& input) const {
  APDS_TRACE_SCOPE("apd.propagate");
  // One relaxed load when profiling is off (bench-gated by the
  // perf_region_overhead row); under --profile it attributes this pass's
  // cycles/cache traffic to the dispatched kernel backend.
  obs::PerfCounterRegion perf_region;
  const std::vector<Matrix>& weight_sq = f64_pack();
  MeanVar h = input;
  APDS_MOMENT_CONTRACT(h, "apd.propagate input");
  for (std::size_t l = 0; l < mlp_->num_layers(); ++l) {
    const DenseLayer& layer = mlp_->layer(l);
    obs::FlightLayerTimer layer_timer;
    TraceSpan span("apd.layer");
    if (span.active()) span.set_args(layer_span_args(l, layer));
    h = moment_linear(h, layer.weight, weight_sq[l], layer.bias,
                      layer.keep_prob);
    moment_activation_inplace(surrogates_[l], h);
    APDS_MOMENT_CONTRACT(h, "apd.propagate layer output");
  }
  return h;
}

GaussianVec ApDeepSense::propagate_one(std::span<const double> x) const {
  const MeanVar out = propagate(MeanVar::point(Matrix::row_vector(x)));
  return out.row(0);
}

MeanVar ApDeepSense::propagate_recording(
    const MeanVar& input, std::vector<MeanVar>& layer_outputs) const {
  const std::vector<Matrix>& weight_sq = f64_pack();
  layer_outputs.clear();
  layer_outputs.reserve(mlp_->num_layers());
  MeanVar h = input;
  APDS_MOMENT_CONTRACT(h, "apd.propagate_recording input");
  for (std::size_t l = 0; l < mlp_->num_layers(); ++l) {
    const DenseLayer& layer = mlp_->layer(l);
    obs::FlightLayerTimer layer_timer;
    TraceSpan span("apd.layer");
    if (span.active()) span.set_args(layer_span_args(l, layer));
    h = moment_linear(h, layer.weight, weight_sq[l], layer.bias,
                      layer.keep_prob);
    moment_activation_inplace(surrogates_[l], h);
    APDS_MOMENT_CONTRACT(h, "apd.propagate_recording layer output");
    layer_outputs.push_back(h);
  }
  return h;
}

const PiecewiseLinear& ApDeepSense::surrogate(std::size_t l) const {
  APDS_CHECK(l < surrogates_.size());
  return surrogates_[l];
}

}  // namespace apds
