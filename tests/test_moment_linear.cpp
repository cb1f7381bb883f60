#include "core/moment_linear.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "moment_reference.h"
#include "stats/running_stats.h"
#include "tensor/gemm.h"
#include "tensor/ops.h"

namespace apds {
namespace {

DenseLayer random_layer(std::size_t in, std::size_t out, double keep_prob,
                        Rng& rng) {
  DenseLayer layer;
  layer.weight = Matrix(in, out);
  layer.bias = Matrix(1, out);
  for (double& v : layer.weight.flat()) v = rng.normal(0.0, 0.7);
  for (double& v : layer.bias.flat()) v = rng.normal(0.0, 0.3);
  layer.keep_prob = keep_prob;
  layer.act = Activation::kIdentity;
  return layer;
}

TEST(MomentLinear, DeterministicInputNoDropoutIsExact) {
  Rng rng(1);
  const DenseLayer layer = random_layer(4, 3, 1.0, rng);
  MeanVar input = MeanVar::point(Matrix{{0.5, -1.0, 2.0, 0.1}});
  const MeanVar out = moment_linear(input, layer);

  // Mean must equal the plain affine map; variance must be zero.
  Matrix expected(1, 3);
  gemm(input.mean, layer.weight, expected);
  add_row_broadcast(expected, layer.bias);
  EXPECT_LT(max_abs_diff(out.mean, expected), 1e-12);
  for (double v : out.var.flat()) EXPECT_NEAR(v, 0.0, 1e-15);
}

TEST(MomentLinear, MatchesHandComputedSingleUnit) {
  // One input, one output: y = x z w + b with x ~ N(mu, s2), z ~ Bern(p).
  DenseLayer layer;
  layer.weight = Matrix{{2.0}};
  layer.bias = Matrix{{1.0}};
  layer.keep_prob = 0.8;
  const double mu = 3.0;
  const double s2 = 0.25;

  MeanVar input(1, 1);
  input.mean(0, 0) = mu;
  input.var(0, 0) = s2;
  const MeanVar out = moment_linear(input, layer);

  // E[y] = mu p w + b; Var[y] = ((mu^2+s2)p - mu^2 p^2) w^2.
  EXPECT_NEAR(out.mean(0, 0), mu * 0.8 * 2.0 + 1.0, 1e-12);
  const double expected_var =
      ((mu * mu + s2) * 0.8 - mu * mu * 0.64) * 4.0;
  EXPECT_NEAR(out.var(0, 0), expected_var, 1e-12);
}

TEST(MomentLinear, PrecomputedSquareMatchesOnTheFly) {
  Rng rng(2);
  const DenseLayer layer = random_layer(6, 5, 0.7, rng);
  MeanVar input(2, 6);
  for (double& v : input.mean.flat()) v = rng.normal();
  for (double& v : input.var.flat()) v = std::fabs(rng.normal());

  // The moment tile squares W as it reads it; the test-local reference
  // runs a plain GEMM against a stored square(W). Bit for bit the same on
  // the scalar kernel tier (the wider tiers contract to FMA).
  const testing::ScalarKernelScope scalar;
  const MeanVar a = moment_linear(input, layer);
  const MeanVar b =
      moment_linear(input, layer.weight, layer.bias, layer.keep_prob);
  const MeanVar ref = testing::reference_moment_linear(input, layer);
  EXPECT_EQ(max_abs_diff(a.mean, ref.mean), 0.0);
  EXPECT_EQ(max_abs_diff(a.var, ref.var), 0.0);
  EXPECT_EQ(max_abs_diff(b.mean, ref.mean), 0.0);
  EXPECT_EQ(max_abs_diff(b.var, ref.var), 0.0);
}

TEST(MomentLinear, SingleVectorMatchesBatchRow) {
  Rng rng(3);
  const DenseLayer layer = random_layer(5, 4, 0.9, rng);
  GaussianVec g(5);
  for (std::size_t i = 0; i < 5; ++i) {
    g.mean[i] = rng.normal();
    g.var[i] = std::fabs(rng.normal());
  }
  MeanVar batch(1, 5);
  std::copy(g.mean.begin(), g.mean.end(), batch.mean.row(0).begin());
  std::copy(g.var.begin(), g.var.end(), batch.var.row(0).begin());

  const GaussianVec out_single = moment_linear(g, layer);
  const MeanVar out_batch = moment_linear(batch, layer);
  for (std::size_t j = 0; j < 4; ++j) {
    EXPECT_NEAR(out_single.mean[j], out_batch.mean(0, j), 1e-14);
    EXPECT_NEAR(out_single.var[j], out_batch.var(0, j), 1e-14);
  }
}

TEST(MomentLinear, ShapeAndParamValidation) {
  Rng rng(4);
  const DenseLayer layer = random_layer(3, 2, 0.5, rng);
  MeanVar wrong(1, 4);
  EXPECT_THROW(moment_linear(wrong, layer), InvalidArgument);

  MeanVar ok(1, 3);
  EXPECT_THROW(moment_linear(ok, layer.weight, layer.bias, 0.0),
               InvalidArgument);
  EXPECT_THROW(moment_linear(ok, layer.weight, layer.bias, 1.5),
               InvalidArgument);
}

// A bias that is not 1 x out_dim would be read out of bounds by the bias
// broadcast; it is rejected up front.
TEST(MomentLinear, BiasShapeIsChecked) {
  Rng rng(5);
  const DenseLayer layer = random_layer(3, 4, 0.9, rng);
  const MeanVar ok(2, 3);
  const Matrix short_bias(1, 2);
  const Matrix tall_bias(4, 1);
  EXPECT_THROW(moment_linear(ok, layer.weight, short_bias, 0.9),
               InvalidArgument);
  EXPECT_THROW(moment_linear(ok, layer.weight, tall_bias, 0.9),
               InvalidArgument);
}

// Property-based validation: the closed form must match Monte-Carlo
// simulation of x z W + b across keep-probabilities and input spreads.
struct MomentLinearCase {
  double keep_prob;
  double input_sigma;
};

class MomentLinearMc : public ::testing::TestWithParam<MomentLinearCase> {};

TEST_P(MomentLinearMc, ClosedFormMatchesSimulation) {
  const auto [keep_prob, input_sigma] = GetParam();
  Rng rng(42);
  const std::size_t in = 8;
  const std::size_t out = 4;
  const DenseLayer layer = random_layer(in, out, keep_prob, rng);

  GaussianVec input(in);
  for (std::size_t i = 0; i < in; ++i) {
    input.mean[i] = rng.normal(0.0, 1.5);
    input.var[i] = input_sigma * input_sigma * std::fabs(rng.normal(1.0, 0.2));
  }

  const GaussianVec predicted = moment_linear(input, layer);

  const std::size_t samples = 200000;
  RunningVectorStats stats(out);
  std::vector<double> y(out);
  for (std::size_t s = 0; s < samples; ++s) {
    std::fill(y.begin(), y.end(), 0.0);
    for (std::size_t i = 0; i < in; ++i) {
      if (!rng.bernoulli(keep_prob)) continue;
      const double x = rng.normal(input.mean[i], std::sqrt(input.var[i]));
      for (std::size_t j = 0; j < out; ++j) y[j] += x * layer.weight(i, j);
    }
    for (std::size_t j = 0; j < out; ++j) y[j] += layer.bias(0, j);
    stats.add(y);
  }

  const auto mc_var = stats.variance();
  for (std::size_t j = 0; j < out; ++j) {
    const double sd = std::sqrt(predicted.var[j]) + 1e-9;
    EXPECT_NEAR(predicted.mean[j], stats.mean()[j], 5.0 * sd / std::sqrt(2e5))
        << "mean, output " << j;
    // Regularized ratio so the deterministic case (both variances zero)
    // compares 1 to 1 instead of 0/0.
    EXPECT_NEAR((predicted.var[j] + 1e-9) / (mc_var[j] + 1e-9), 1.0, 0.05)
        << "variance ratio, output " << j;
  }
}

INSTANTIATE_TEST_SUITE_P(
    KeepProbAndSpread, MomentLinearMc,
    ::testing::Values(MomentLinearCase{1.0, 0.0}, MomentLinearCase{1.0, 1.0},
                      MomentLinearCase{0.9, 0.0}, MomentLinearCase{0.9, 0.5},
                      MomentLinearCase{0.7, 1.0}, MomentLinearCase{0.5, 0.3},
                      MomentLinearCase{0.3, 2.0}));

}  // namespace
}  // namespace apds
