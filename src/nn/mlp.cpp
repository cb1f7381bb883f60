#include "nn/mlp.h"

#include <cmath>

#include "tensor/gemm.h"
#include "tensor/ops.h"

namespace apds {

namespace {
Matrix init_weight(std::size_t in, std::size_t out, Activation act, Rng& rng) {
  // He initialization for ReLU, Glorot for saturating activations.
  const double scale =
      act == Activation::kRelu
          ? std::sqrt(2.0 / static_cast<double>(in))
          : std::sqrt(2.0 / static_cast<double>(in + out));
  Matrix w(in, out);
  for (double& v : w.flat()) v = rng.normal(0.0, scale);
  return w;
}

Matrix sample_mask(std::size_t rows, std::size_t cols, double keep_prob,
                   Rng& rng) {
  Matrix m(rows, cols, 1.0);
  if (keep_prob >= 1.0) return m;
  for (double& v : m.flat()) v = rng.bernoulli(keep_prob) ? 1.0 : 0.0;
  return m;
}
}  // namespace

Mlp Mlp::make(const MlpSpec& spec, Rng& rng) {
  APDS_CHECK_MSG(spec.dims.size() >= 2, "MlpSpec needs at least 2 dims");
  APDS_CHECK(spec.hidden_keep_prob > 0.0 && spec.hidden_keep_prob <= 1.0);
  APDS_CHECK(spec.input_keep_prob > 0.0 && spec.input_keep_prob <= 1.0);
  Mlp mlp;
  const std::size_t num_layers = spec.dims.size() - 1;
  mlp.layers_.reserve(num_layers);
  for (std::size_t l = 0; l < num_layers; ++l) {
    DenseLayer layer;
    layer.act =
        (l + 1 == num_layers) ? spec.output_act : spec.hidden_act;
    layer.keep_prob = (l == 0) ? spec.input_keep_prob : spec.hidden_keep_prob;
    layer.weight = init_weight(spec.dims[l], spec.dims[l + 1], layer.act, rng);
    layer.bias = Matrix(1, spec.dims[l + 1]);
    mlp.layers_.push_back(std::move(layer));
  }
  return mlp;
}

Mlp Mlp::from_layers(std::vector<DenseLayer> layers) {
  APDS_CHECK(!layers.empty());
  for (std::size_t l = 0; l < layers.size(); ++l) {
    const DenseLayer& layer = layers[l];
    // Sessions read bias[j] for every output column and trust keep_prob
    // without checking it per call, so reject both here (NaN included).
    APDS_CHECK_MSG(layer.keep_prob > 0.0 && layer.keep_prob <= 1.0,
                   "layer " << l << " keep_prob " << layer.keep_prob
                            << " outside (0, 1]");
    APDS_CHECK_MSG(layer.bias.rows() == 1 &&
                       layer.bias.cols() == layer.weight.cols(),
                   "layer " << l << " bias is " << layer.bias.rows() << "x"
                            << layer.bias.cols() << ", want 1x"
                            << layer.weight.cols());
    if (l + 1 < layers.size())
      APDS_CHECK_MSG(layer.out_dim() == layers[l + 1].in_dim(),
                     "layer " << l << " out dim != layer " << l + 1
                              << " in dim");
  }
  Mlp mlp;
  mlp.layers_ = std::move(layers);
  return mlp;
}

std::size_t Mlp::input_dim() const {
  APDS_CHECK(!layers_.empty());
  return layers_.front().in_dim();
}

std::size_t Mlp::output_dim() const {
  APDS_CHECK(!layers_.empty());
  return layers_.back().out_dim();
}

const DenseLayer& Mlp::layer(std::size_t l) const {
  APDS_CHECK(l < layers_.size());
  return layers_[l];
}

DenseLayer& Mlp::mutable_layer(std::size_t l) {
  APDS_CHECK(l < layers_.size());
  return layers_[l];
}

std::size_t Mlp::num_params() const {
  std::size_t n = 0;
  for (const auto& layer : layers_) n += layer.weight.size() + layer.bias.size();
  return n;
}

Matrix Mlp::forward_deterministic(const Matrix& x) const {
  APDS_CHECK_MSG(x.cols() == input_dim(), "forward: input dim");
  Matrix h = x;
  for (const auto& layer : layers_) {
    if (layer.keep_prob < 1.0) scale_inplace(h, layer.keep_prob);
    Matrix pre(h.rows(), layer.out_dim());
    gemm(h, layer.weight, pre);
    add_row_broadcast(pre, layer.bias);
    h = apply_activation(layer.act, pre);
  }
  return h;
}

Matrix Mlp::forward_stochastic(const Matrix& x, Rng& rng) const {
  APDS_CHECK_MSG(x.cols() == input_dim(), "forward: input dim");
  Matrix h = x;
  for (const auto& layer : layers_) {
    if (layer.keep_prob < 1.0) {
      const Matrix mask = sample_mask(h.rows(), h.cols(), layer.keep_prob, rng);
      hadamard_inplace(h, mask);
    }
    Matrix pre(h.rows(), layer.out_dim());
    gemm(h, layer.weight, pre);
    add_row_broadcast(pre, layer.bias);
    h = apply_activation(layer.act, pre);
  }
  return h;
}

Matrix Mlp::forward_stochastic_recording(const Matrix& x, Rng& rng,
                                         std::vector<Matrix>& hidden) const {
  APDS_CHECK_MSG(x.cols() == input_dim(), "forward: input dim");
  hidden.clear();
  hidden.reserve(layers_.size());
  Matrix h = x;
  for (const auto& layer : layers_) {
    if (layer.keep_prob < 1.0) {
      const Matrix mask = sample_mask(h.rows(), h.cols(), layer.keep_prob, rng);
      hadamard_inplace(h, mask);
    }
    Matrix pre(h.rows(), layer.out_dim());
    gemm(h, layer.weight, pre);
    add_row_broadcast(pre, layer.bias);
    h = apply_activation(layer.act, pre);
    hidden.push_back(h);
  }
  return h;
}

Matrix Mlp::forward_train(const Matrix& x, Rng& rng,
                          ForwardCache& cache) const {
  APDS_CHECK_MSG(x.cols() == input_dim(), "forward: input dim");
  cache.masked_inputs.clear();
  cache.masks.clear();
  cache.preacts.clear();
  cache.masked_inputs.reserve(layers_.size());
  cache.masks.reserve(layers_.size());
  cache.preacts.reserve(layers_.size());

  Matrix h = x;
  for (const auto& layer : layers_) {
    Matrix mask = sample_mask(h.rows(), h.cols(), layer.keep_prob, rng);
    if (layer.keep_prob < 1.0) hadamard_inplace(h, mask);
    cache.masks.push_back(std::move(mask));
    cache.masked_inputs.push_back(h);

    Matrix pre(h.rows(), layer.out_dim());
    gemm(h, layer.weight, pre);
    add_row_broadcast(pre, layer.bias);
    h = apply_activation(layer.act, pre);
    cache.preacts.push_back(std::move(pre));
  }
  cache.output = h;
  return h;
}

MlpGradients Mlp::backward(const ForwardCache& cache,
                           const Matrix& grad_output) const {
  APDS_CHECK(cache.preacts.size() == layers_.size());
  MlpGradients grads;
  grads.dweight.resize(layers_.size());
  grads.dbias.resize(layers_.size());

  // dL/d preact of the last layer.
  Matrix delta = hadamard(
      grad_output,
      activation_grad_matrix(layers_.back().act, cache.preacts.back()));

  for (std::size_t l = layers_.size(); l-- > 0;) {
    const auto& layer = layers_[l];
    grads.dweight[l] = Matrix(layer.in_dim(), layer.out_dim());
    gemm_tn(cache.masked_inputs[l], delta, grads.dweight[l]);
    grads.dbias[l] = col_sums(delta);

    if (l == 0) break;
    Matrix dmasked(delta.rows(), layer.in_dim());
    gemm_nt(delta, layer.weight, dmasked);
    // Through the dropout mask of layer l, then through activation of l-1.
    hadamard_inplace(dmasked, cache.masks[l]);
    delta = hadamard(dmasked, activation_grad_matrix(layers_[l - 1].act,
                                                     cache.preacts[l - 1]));
  }
  return grads;
}

std::vector<Matrix*> Mlp::parameters() {
  std::vector<Matrix*> ps;
  ps.reserve(layers_.size() * 2);
  for (auto& layer : layers_) {
    ps.push_back(&layer.weight);
    ps.push_back(&layer.bias);
  }
  return ps;
}

std::vector<Matrix*> Mlp::gradient_ptrs(MlpGradients& g) {
  std::vector<Matrix*> ps;
  ps.reserve(g.dweight.size() * 2);
  for (std::size_t l = 0; l < g.dweight.size(); ++l) {
    ps.push_back(&g.dweight[l]);
    ps.push_back(&g.dbias[l]);
  }
  return ps;
}

}  // namespace apds
