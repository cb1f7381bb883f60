#include "core/apdeepsense.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/precision.h"
#include "common/rng.h"
#include "conv/conv_apdeepsense.h"
#include "moment_reference.h"
#include "stats/running_stats.h"
#include "tensor/ops.h"

namespace apds {
namespace {

Mlp random_mlp(std::vector<std::size_t> dims, Activation act,
               double keep_prob, Rng& rng) {
  MlpSpec spec;
  spec.dims = std::move(dims);
  spec.hidden_act = act;
  spec.output_act = Activation::kIdentity;
  spec.hidden_keep_prob = keep_prob;
  return Mlp::make(spec, rng);
}

TEST(ApDeepSense, OutputShapeMatchesNetwork) {
  Rng rng(1);
  const Mlp mlp = random_mlp({4, 8, 8, 3}, Activation::kRelu, 0.9, rng);
  const ApDeepSense apd(mlp);
  Matrix x(5, 4);
  const MeanVar out = apd.propagate(x);
  EXPECT_EQ(out.batch(), 5u);
  EXPECT_EQ(out.dim(), 3u);
}

TEST(ApDeepSense, NoDropoutReluEqualsDeterministicForward) {
  // Without dropout there is no stochasticity; the analytic mean must equal
  // the plain forward pass exactly (ReLU is exactly PWL) and the variance
  // must be zero.
  Rng rng(2);
  const Mlp mlp = random_mlp({3, 6, 6, 2}, Activation::kRelu, 1.0, rng);
  const ApDeepSense apd(mlp);
  Matrix x(4, 3);
  for (double& v : x.flat()) v = rng.normal();

  const MeanVar out = apd.propagate(x);
  EXPECT_LT(max_abs_diff(out.mean, mlp.forward_deterministic(x)), 1e-9);
  for (double v : out.var.flat()) EXPECT_NEAR(v, 0.0, 1e-12);
}

TEST(ApDeepSense, MomentsMatchMcDropSimulationRelu) {
  Rng rng(3);
  const Mlp mlp = random_mlp({5, 12, 12, 2}, Activation::kRelu, 0.8, rng);
  const ApDeepSense apd(mlp);
  Matrix x(1, 5);
  for (double& v : x.flat()) v = rng.normal();

  const MeanVar predicted = apd.propagate(x);

  RunningVectorStats stats(2);
  Rng mc_rng(7);
  const int n = 60000;
  for (int i = 0; i < n; ++i)
    stats.add(mlp.forward_stochastic(x, mc_rng).row(0));

  const auto mc_var = stats.variance();
  for (std::size_t j = 0; j < 2; ++j) {
    // The layer-wise Gaussian approximation is not exact (hidden units are
    // treated as independent Gaussians), so allow modest tolerances.
    const double sd = std::sqrt(mc_var[j]);
    EXPECT_NEAR(predicted.mean(0, j), stats.mean()[j], 0.15 * sd + 0.02)
        << "output " << j;
    EXPECT_NEAR(predicted.var(0, j) / (mc_var[j] + 1e-12), 1.0, 0.35)
        << "output " << j;
  }
}

TEST(ApDeepSense, MomentsMatchMcDropSimulationTanh) {
  // Wider hidden layers than the ReLU variant: the layer-wise Gaussian +
  // independence approximation the paper makes gets better as units
  // average over more inputs, and saturating activations stress it more.
  Rng rng(4);
  const Mlp mlp = random_mlp({5, 32, 32, 2}, Activation::kTanh, 0.8, rng);
  const ApDeepSense apd(mlp, ApDeepSenseConfig{15});
  Matrix x(1, 5);
  for (double& v : x.flat()) v = rng.normal();

  const MeanVar predicted = apd.propagate(x);

  RunningVectorStats stats(2);
  Rng mc_rng(7);
  const int n = 60000;
  for (int i = 0; i < n; ++i)
    stats.add(mlp.forward_stochastic(x, mc_rng).row(0));

  const auto mc_var = stats.variance();
  for (std::size_t j = 0; j < 2; ++j) {
    const double sd = std::sqrt(mc_var[j]);
    EXPECT_NEAR(predicted.mean(0, j), stats.mean()[j], 0.15 * sd + 0.02);
    EXPECT_NEAR(predicted.var(0, j) / (mc_var[j] + 1e-12), 1.0, 0.5);
  }
}

TEST(ApDeepSense, UncertainInputPropagates) {
  // Even with no dropout, input variance must flow to the output.
  Rng rng(5);
  const Mlp mlp = random_mlp({3, 6, 2}, Activation::kRelu, 1.0, rng);
  const ApDeepSense apd(mlp);
  MeanVar input(1, 3);
  input.mean(0, 0) = 1.0;
  input.var.fill(0.5);
  const MeanVar out = apd.propagate(input);
  double total_var = 0.0;
  for (double v : out.var.flat()) total_var += v;
  EXPECT_GT(total_var, 0.0);
}

TEST(ApDeepSense, PropagateOneMatchesBatch) {
  Rng rng(6);
  const Mlp mlp = random_mlp({4, 7, 3}, Activation::kTanh, 0.85, rng);
  const ApDeepSense apd(mlp);
  const double x[] = {0.3, -1.2, 0.8, 2.0};
  const GaussianVec single = apd.propagate_one(x);
  const MeanVar batch = apd.propagate(Matrix::row_vector(x));
  for (std::size_t j = 0; j < 3; ++j) {
    EXPECT_NEAR(single.mean[j], batch.mean(0, j), 1e-14);
    EXPECT_NEAR(single.var[j], batch.var(0, j), 1e-14);
  }
}

// The per-layer distributions come from the test-local reference pass
// (moment_reference.h); its last layer is the engine's output, bit for bit
// on the scalar kernel tier.
TEST(ApDeepSense, RecordingReturnsPerLayerDistributions) {
  const testing::ScalarKernelScope scalar;
  Rng rng(7);
  const Mlp mlp = random_mlp({4, 7, 5, 3}, Activation::kRelu, 0.9, rng);
  const ApDeepSense apd(mlp);
  const MeanVar input = MeanVar::point(Matrix(1, 4, 0.5));
  std::vector<MeanVar> layers;
  const MeanVar out = testing::reference_propagate(apd, input, &layers);
  ASSERT_EQ(layers.size(), 3u);
  EXPECT_EQ(layers[0].dim(), 7u);
  EXPECT_EQ(layers[1].dim(), 5u);
  EXPECT_LT(max_abs_diff(layers[2].mean, out.mean), 1e-15);
  const MeanVar engine = apd.propagate(input, Precision::kF64);
  EXPECT_EQ(max_abs_diff(engine.mean, out.mean), 0.0);
  EXPECT_EQ(max_abs_diff(engine.var, out.var), 0.0);
  // ReLU outputs are non-negative; so must be their approximated means.
  for (double v : layers[0].mean.flat()) EXPECT_GE(v, -1e-12);
}

TEST(ApDeepSense, SurrogateAccessor) {
  Rng rng(8);
  const Mlp mlp = random_mlp({3, 4, 2}, Activation::kTanh, 0.9, rng);
  const ApDeepSense apd(mlp, ApDeepSenseConfig{9});
  EXPECT_EQ(apd.surrogate(0).num_pieces(), 9u);  // tanh hidden layer
  EXPECT_EQ(apd.surrogate(1).num_pieces(), 1u);  // identity output
  EXPECT_THROW(apd.surrogate(2), InvalidArgument);
}

TEST(ApDeepSense, VarianceGrowsWithDropout) {
  // More aggressive dropout -> more output variance, all else equal.
  Rng rng(9);
  Mlp mlp = random_mlp({4, 10, 2}, Activation::kRelu, 0.95, rng);
  Matrix x(1, 4, 1.0);
  const MeanVar gentle = ApDeepSense(mlp).propagate(x);
  for (std::size_t l = 0; l < mlp.num_layers(); ++l)
    if (mlp.layer(l).keep_prob < 1.0) mlp.mutable_layer(l).keep_prob = 0.5;
  const MeanVar harsh = ApDeepSense(mlp).propagate(x);
  double gentle_total = 0.0;
  double harsh_total = 0.0;
  for (double v : gentle.var.flat()) gentle_total += v;
  for (double v : harsh.var.flat()) harsh_total += v;
  EXPECT_GT(harsh_total, gentle_total);
}

TEST(ApDeepSense, InvalidConfigRejected) {
  Rng rng(10);
  const Mlp mlp = random_mlp({3, 4, 2}, Activation::kTanh, 0.9, rng);
  EXPECT_THROW(ApDeepSense(mlp, ApDeepSenseConfig{2}), InvalidArgument);
}

// A var batch smaller than its mean batch would be read past its end, so
// every precision, and the conv front end, must reject it up front.
TEST(ApDeepSense, MeanVarShapeMismatchRejectedAtEveryPrecision) {
  Rng rng(11);
  const Mlp mlp = random_mlp({4, 8, 2}, Activation::kTanh, 0.9, rng);
  const ApDeepSense apd(mlp);
  MeanVar short_rows(3, 4);
  short_rows.var = Matrix(1, 4, 0.1);
  MeanVar short_cols(3, 4);
  short_cols.var = Matrix(3, 2, 0.1);
  for (const Precision p :
       {Precision::kF64, Precision::kF32, Precision::kI8}) {
    SCOPED_TRACE(precision_name(p));
    EXPECT_THROW(apd.propagate(short_rows, p), InvalidArgument);
    EXPECT_THROW(apd.propagate(short_cols, p), InvalidArgument);
  }

  std::vector<Conv1dLayer> convs;
  convs.push_back(make_conv1d(3, 1, 2, 1, Activation::kRelu, 0.9, rng));
  MlpSpec head;
  head.dims = {20, 4, 2};  // input len 12 -> 10 steps x 2 channels
  const ConvNet net(12, 1, std::move(convs), Mlp::make(head, rng));
  const ConvApDeepSense conv_apd(net);
  MeanVar conv_input(3, 12);
  conv_input.var = Matrix(1, 12, 0.1);
  EXPECT_THROW(conv_apd.propagate(conv_input), InvalidArgument);
}

}  // namespace
}  // namespace apds
