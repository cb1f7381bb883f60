#include "nn/mlp.h"

#include <gtest/gtest.h>

#include <limits>

#include "nn/loss.h"
#include "tensor/ops.h"

namespace apds {
namespace {

MlpSpec small_spec(Activation act = Activation::kTanh,
                   double keep_prob = 0.8) {
  MlpSpec spec;
  spec.dims = {3, 5, 4, 2};
  spec.hidden_act = act;
  spec.output_act = Activation::kIdentity;
  spec.hidden_keep_prob = keep_prob;
  return spec;
}

TEST(Mlp, MakeProducesRequestedShape) {
  Rng rng(1);
  const Mlp mlp = Mlp::make(small_spec(), rng);
  EXPECT_EQ(mlp.num_layers(), 3u);
  EXPECT_EQ(mlp.input_dim(), 3u);
  EXPECT_EQ(mlp.output_dim(), 2u);
  EXPECT_EQ(mlp.layer(0).weight.rows(), 3u);
  EXPECT_EQ(mlp.layer(0).weight.cols(), 5u);
  EXPECT_EQ(mlp.layer(2).act, Activation::kIdentity);
  EXPECT_EQ(mlp.layer(1).act, Activation::kTanh);
  EXPECT_EQ(mlp.layer(0).keep_prob, 1.0);  // input layer keeps everything
  EXPECT_EQ(mlp.layer(1).keep_prob, 0.8);
}

TEST(Mlp, NumParamsCountsWeightsAndBiases) {
  Rng rng(1);
  const Mlp mlp = Mlp::make(small_spec(), rng);
  EXPECT_EQ(mlp.num_params(), 3u * 5 + 5 + 5u * 4 + 4 + 4u * 2 + 2);
}

TEST(Mlp, TooFewDimsThrows) {
  Rng rng(1);
  MlpSpec spec;
  spec.dims = {4};
  EXPECT_THROW(Mlp::make(spec, rng), InvalidArgument);
}

TEST(Mlp, FromLayersValidatesChaining) {
  DenseLayer a;
  a.weight = Matrix(3, 4);
  a.bias = Matrix(1, 4);
  DenseLayer b;
  b.weight = Matrix(5, 2);  // mismatch: 4 != 5
  b.bias = Matrix(1, 2);
  std::vector<DenseLayer> layers;
  layers.push_back(a);
  layers.push_back(b);
  EXPECT_THROW(Mlp::from_layers(std::move(layers)), InvalidArgument);
}

TEST(Mlp, FromLayersRejectsKeepProbOutsideUnitInterval) {
  for (const double keep_prob :
       {0.0, -0.5, 1.5, std::numeric_limits<double>::quiet_NaN()}) {
    SCOPED_TRACE(keep_prob);
    DenseLayer layer;
    layer.weight = Matrix(3, 4);
    layer.bias = Matrix(1, 4);
    layer.keep_prob = keep_prob;
    EXPECT_THROW(Mlp::from_layers({layer}), InvalidArgument);
  }
}

TEST(Mlp, FromLayersRejectsBiasThatIsNotOneByOut) {
  for (const Matrix& bias : {Matrix(1, 3), Matrix(4, 1), Matrix(2, 4)}) {
    DenseLayer layer;
    layer.weight = Matrix(3, 4);
    layer.bias = bias;
    EXPECT_THROW(Mlp::from_layers({layer}), InvalidArgument);
  }
  DenseLayer ok;
  ok.weight = Matrix(3, 4);
  ok.bias = Matrix(1, 4);
  EXPECT_NO_THROW(Mlp::from_layers({ok}));
}

TEST(Mlp, DeterministicEqualsStochasticWithoutDropout) {
  Rng rng(3);
  const Mlp mlp = Mlp::make(small_spec(Activation::kRelu, 1.0), rng);
  Matrix x(4, 3);
  for (double& v : x.flat()) v = rng.normal();
  Rng pass_rng(7);
  EXPECT_LT(max_abs_diff(mlp.forward_deterministic(x),
                         mlp.forward_stochastic(x, pass_rng)),
            1e-12);
}

TEST(Mlp, StochasticPassesVaryWithDropout) {
  Rng rng(5);
  const Mlp mlp = Mlp::make(small_spec(Activation::kRelu, 0.5), rng);
  Matrix x(1, 3, 1.0);
  Rng pass_rng(9);
  const Matrix y1 = mlp.forward_stochastic(x, pass_rng);
  const Matrix y2 = mlp.forward_stochastic(x, pass_rng);
  EXPECT_GT(max_abs_diff(y1, y2), 0.0);
}

TEST(Mlp, StochasticMeanApproachesMomentMean) {
  // With dropout, the average of many stochastic passes approaches the
  // deterministic pass (which folds E[mask] = p into the input).
  Rng rng(7);
  const Mlp mlp = Mlp::make(small_spec(Activation::kIdentity, 0.7), rng);
  Matrix x(1, 3);
  x(0, 0) = 1.0;
  x(0, 1) = -2.0;
  x(0, 2) = 0.5;

  Rng pass_rng(11);
  Matrix acc(1, 2);
  const int n = 20000;
  for (int i = 0; i < n; ++i)
    add_inplace(acc, mlp.forward_stochastic(x, pass_rng));
  scale_inplace(acc, 1.0 / n);
  // Identity activations make the network linear in the masks, so the
  // sample mean converges to the deterministic output exactly.
  EXPECT_LT(max_abs_diff(acc, mlp.forward_deterministic(x)), 0.05);
}

TEST(Mlp, WrongInputDimThrows) {
  Rng rng(1);
  const Mlp mlp = Mlp::make(small_spec(), rng);
  Matrix x(2, 4);
  EXPECT_THROW(mlp.forward_deterministic(x), InvalidArgument);
  EXPECT_THROW(mlp.forward_stochastic(x, rng), InvalidArgument);
}

TEST(Mlp, RecordingPassReturnsAllHiddenLayers) {
  Rng rng(13);
  const Mlp mlp = Mlp::make(small_spec(), rng);
  Matrix x(1, 3, 0.5);
  std::vector<Matrix> hidden;
  const Matrix y = mlp.forward_stochastic_recording(x, rng, hidden);
  ASSERT_EQ(hidden.size(), 3u);
  EXPECT_EQ(hidden[0].cols(), 5u);
  EXPECT_EQ(hidden[1].cols(), 4u);
  EXPECT_EQ(hidden[2], y);
}

TEST(Mlp, BackwardGradientsMatchFiniteDifferences) {
  // Gradient check with dropout disabled (masks are all ones so the
  // stochastic training pass is deterministic).
  Rng rng(17);
  MlpSpec spec = small_spec(Activation::kTanh, 1.0);
  Mlp mlp = Mlp::make(spec, rng);
  Matrix x(3, 3);
  Matrix t(3, 2);
  for (double& v : x.flat()) v = rng.normal();
  for (double& v : t.flat()) v = rng.normal();
  const MseLoss loss;

  ForwardCache cache;
  Rng pass_rng(1);
  const Matrix out = mlp.forward_train(x, pass_rng, cache);
  const LossResult lr = loss.value_and_grad(out, t);
  const MlpGradients grads = mlp.backward(cache, lr.grad);

  const double eps = 1e-6;
  for (std::size_t l = 0; l < mlp.num_layers(); ++l) {
    // Check a handful of weight entries per layer.
    for (std::size_t probe = 0; probe < 3; ++probe) {
      const std::size_t r = probe % mlp.layer(l).weight.rows();
      const std::size_t c = (probe * 2) % mlp.layer(l).weight.cols();
      double& w = mlp.mutable_layer(l).weight(r, c);
      const double orig = w;
      w = orig + eps;
      const double up =
          loss.value_and_grad(mlp.forward_deterministic(x), t).value;
      w = orig - eps;
      const double down =
          loss.value_and_grad(mlp.forward_deterministic(x), t).value;
      w = orig;
      const double numeric = (up - down) / (2.0 * eps);
      EXPECT_NEAR(grads.dweight[l](r, c), numeric, 1e-5)
          << "layer " << l << " w(" << r << "," << c << ")";
    }
    // And one bias entry.
    double& b = mlp.mutable_layer(l).bias(0, 0);
    const double orig = b;
    b = orig + eps;
    const double up =
        loss.value_and_grad(mlp.forward_deterministic(x), t).value;
    b = orig - eps;
    const double down =
        loss.value_and_grad(mlp.forward_deterministic(x), t).value;
    b = orig;
    EXPECT_NEAR(grads.dbias[l](0, 0), (up - down) / (2.0 * eps), 1e-5)
        << "layer " << l << " bias";
  }
}

TEST(Mlp, BackwardRespectsDropoutMasks) {
  // A unit whose mask was 0 in the forward pass must contribute no weight
  // gradient for the corresponding row.
  Rng rng(19);
  Mlp mlp = Mlp::make(small_spec(Activation::kIdentity, 0.5), rng);
  Matrix x(1, 3, 1.0);
  Matrix t(1, 2, 0.0);
  const MseLoss loss;

  ForwardCache cache;
  Rng pass_rng(23);
  const Matrix out = mlp.forward_train(x, pass_rng, cache);
  const LossResult lr = loss.value_and_grad(out, t);
  const MlpGradients grads = mlp.backward(cache, lr.grad);

  // Layer 1's mask applies to its 5 input units.
  for (std::size_t i = 0; i < 5; ++i) {
    if (cache.masks[1](0, i) == 0.0) {
      for (std::size_t j = 0; j < 4; ++j)
        EXPECT_EQ(grads.dweight[1](i, j), 0.0);
    }
  }
}

TEST(Mlp, ParameterListCoversAllLayers) {
  Rng rng(29);
  Mlp mlp = Mlp::make(small_spec(), rng);
  const auto params = mlp.parameters();
  EXPECT_EQ(params.size(), 6u);  // 3 layers x (weight, bias)
  EXPECT_EQ(params[0], &mlp.mutable_layer(0).weight);
  EXPECT_EQ(params[5], &mlp.mutable_layer(2).bias);
}

}  // namespace
}  // namespace apds
