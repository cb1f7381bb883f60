#include "conv/moment_conv.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "common/rng.h"
#include "conv/conv_apdeepsense.h"
#include "core/moment_activation.h"
#include "stats/running_stats.h"
#include "tensor/ops.h"

namespace apds {
namespace {

TEST(MomentConv, Kernel1ReducesToDenseFormula) {
  // kernel = 1 means no shared-mask-across-taps correction: the variance
  // must equal the paper's dense dropout-linear formula.
  Rng rng(1);
  Conv1dLayer layer = make_conv1d(1, 3, 2, 1, Activation::kIdentity, 0.8, rng);

  MeanVar input(1, 3);  // one step, 3 channels
  for (std::size_t c = 0; c < 3; ++c) {
    input.mean(0, c) = rng.normal();
    input.var(0, c) = std::fabs(rng.normal());
  }
  const MeanVar out = moment_conv1d_linear(layer, input, 1);

  const double p = 0.8;
  for (std::size_t oc = 0; oc < 2; ++oc) {
    double mean = layer.bias(0, oc);
    double var = 0.0;
    for (std::size_t c = 0; c < 3; ++c) {
      const double w = layer.weight(c, oc);
      const double mu = input.mean(0, c);
      const double s2 = input.var(0, c);
      mean += p * mu * w;
      var += ((mu * mu + s2) * p - mu * mu * p * p) * w * w;
    }
    EXPECT_NEAR(out.mean(0, oc), mean, 1e-12);
    EXPECT_NEAR(out.var(0, oc), var, 1e-12);
  }
}

TEST(MomentConv, NoDropoutGivesPlainVariancePropagation) {
  Rng rng(2);
  Conv1dLayer layer = make_conv1d(3, 2, 2, 1, Activation::kIdentity, 1.0, rng);
  MeanVar input(1, 8 * 2);
  for (double& v : input.mean.flat()) v = rng.normal();
  for (double& v : input.var.flat()) v = std::fabs(rng.normal());
  const MeanVar out = moment_conv1d_linear(layer, input, 8);
  // Variance = sum sigma^2 W^2 (no mask term); verify one output.
  double expected = 0.0;
  for (std::size_t k = 0; k < 3; ++k)
    for (std::size_t c = 0; c < 2; ++c) {
      const double w = layer.weight(k * 2 + c, 0);
      expected += input.var(0, k * 2 + c) * w * w;
    }
  EXPECT_NEAR(out.var(0, 0), expected, 1e-12);
}

TEST(MomentConv, DeterministicInputMeanMatchesForward) {
  Rng rng(3);
  Conv1dLayer layer = make_conv1d(3, 2, 4, 2, Activation::kIdentity, 0.75, rng);
  Matrix x(2, 12 * 2);
  for (double& v : x.flat()) v = rng.normal();
  const MeanVar out = moment_conv1d_linear(layer, MeanVar::point(x), 12);
  EXPECT_LT(max_abs_diff(out.mean, conv1d_forward(layer, x, 12)), 1e-12);
}

TEST(MomentConv, SharedMaskCorrectionIsNonNegativeAndMatters) {
  // Construct a case where the taps of one channel have large means with
  // the same sign: the shared mask adds variance the independent formula
  // would miss.
  Conv1dLayer layer;
  layer.kernel = 2;
  layer.in_channels = 1;
  layer.out_channels = 1;
  layer.weight = Matrix{{1.0}, {1.0}};
  layer.bias = Matrix(1, 1);
  layer.act = Activation::kIdentity;
  layer.channel_keep_prob = 0.5;

  MeanVar input(1, 3);
  input.mean.fill(2.0);  // zero variance, pure mask-induced uncertainty
  const MeanVar out = moment_conv1d_linear(layer, input, 3);

  // y = z * (2 + 2) with z ~ Bern(0.5): Var = 16 * 0.25 = 4.
  EXPECT_NEAR(out.var(0, 0), 4.0, 1e-12);
  // The naive per-tap-independent formula would give
  // 2 * (mu^2 p - mu^2 p^2) W^2 = 2 * (4*0.5 - 4*0.25) = 2, i.e. half.
}

// Property test: closed form vs Monte-Carlo over masks and input noise.
struct ConvMcCase {
  double keep_prob;
  double input_sigma;
  std::size_t kernel;
  std::size_t channels;
};

class MomentConvMc : public ::testing::TestWithParam<ConvMcCase> {};

TEST_P(MomentConvMc, ClosedFormMatchesSimulation) {
  const auto [keep, sigma, kernel, channels] = GetParam();
  Rng rng(42);
  Conv1dLayer layer = make_conv1d(kernel, channels, 3, 1,
                                  Activation::kIdentity, keep, rng);
  const std::size_t in_len = kernel + 3;

  MeanVar input(1, in_len * channels);
  for (double& v : input.mean.flat()) v = rng.normal(0.0, 1.2);
  for (double& v : input.var.flat())
    v = sigma * sigma * std::fabs(rng.normal(1.0, 0.2));

  const MeanVar predicted = moment_conv1d_linear(layer, input, in_len);

  const std::size_t out_dim = layer.out_len(in_len) * 3;
  RunningVectorStats stats(out_dim);
  Matrix sample(1, input.dim());
  const int n = 150000;
  for (int i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < input.dim(); ++j)
      sample(0, j) =
          rng.normal(input.mean(0, j), std::sqrt(input.var(0, j)));
    const Matrix y = conv1d_forward_stochastic(layer, sample, in_len, rng);
    stats.add(y.row(0));
  }

  const auto mc_var = stats.variance();
  for (std::size_t j = 0; j < out_dim; ++j) {
    const double sd = std::sqrt(mc_var[j]) + 1e-9;
    EXPECT_NEAR(predicted.mean(0, j), stats.mean()[j],
                6.0 * sd / std::sqrt(n) + 1e-9)
        << "mean, output " << j;
    EXPECT_NEAR((predicted.var(0, j) + 1e-9) / (mc_var[j] + 1e-9), 1.0, 0.06)
        << "variance ratio, output " << j;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, MomentConvMc,
    ::testing::Values(ConvMcCase{1.0, 0.5, 3, 2}, ConvMcCase{0.9, 0.0, 3, 2},
                      ConvMcCase{0.7, 0.5, 2, 1}, ConvMcCase{0.5, 1.0, 4, 3},
                      ConvMcCase{0.8, 0.3, 1, 4}));

TEST(MomentConv, ActivationVariantMatchesManualComposition) {
  Rng rng(7);
  Conv1dLayer layer = make_conv1d(3, 2, 2, 1, Activation::kRelu, 0.8, rng);
  MeanVar input(1, 8 * 2);
  for (double& v : input.mean.flat()) v = rng.normal();
  for (double& v : input.var.flat()) v = std::fabs(rng.normal());

  const auto relu = PiecewiseLinear::relu();
  const MeanVar direct = moment_conv1d(layer, input, 8, relu);
  MeanVar manual = moment_conv1d_linear(layer, input, 8);
  moment_activation_inplace(relu, manual);
  EXPECT_LT(max_abs_diff(direct.mean, manual.mean), 1e-15);
  EXPECT_LT(max_abs_diff(direct.var, manual.var), 1e-15);
}

TEST(MomentConv, ShapeValidation) {
  Rng rng(8);
  Conv1dLayer layer = make_conv1d(3, 2, 2, 1, Activation::kRelu, 0.9, rng);
  MeanVar bad(1, 7);  // not a multiple of in_len * channels
  EXPECT_THROW(moment_conv1d_linear(layer, bad, 4), InvalidArgument);
}

/// Runs `fn`, which must throw InvalidArgument, and checks that the
/// message names the op, the argument and its value (`needle`).
template <typename Fn>
void expect_invalid(Fn&& fn, const std::string& needle) {
  EXPECT_THROW(fn(), InvalidArgument) << needle;
  try {
    fn();
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << e.what();
  }
}

// Every bad op argument is a typed error naming the op, the argument and
// its value, raised by the up-front check.
TEST(MomentConv, OpArgumentsAreValidatedWithNamedErrors) {
  Rng rng(9);
  const Conv1dLayer good = make_conv1d(3, 2, 4, 1, Activation::kRelu, 0.9, rng);
  MeanVar input(1, 6 * 2);
  auto run = [&](const Conv1dLayer& layer, std::size_t in_len) {
    return [&layer, &input, in_len] {
      moment_conv1d_linear(layer, input, in_len);
    };
  };
  Conv1dLayer bad = good;
  bad.kernel = 0;
  expect_invalid(run(bad, 6), "conv1d: kernel 0");
  bad = good;
  bad.stride = 0;
  expect_invalid(run(bad, 6), "conv1d: stride 0");
  bad = good;
  bad.in_channels = 0;
  expect_invalid(run(bad, 6), "conv1d: in_channels 0");
  bad = good;
  bad.out_channels = 0;
  expect_invalid(run(bad, 6), "conv1d: out_channels 0");
  bad = good;
  bad.channel_keep_prob = 1.5;
  expect_invalid(run(bad, 6), "conv1d: channel_keep_prob 1.5");
  bad.channel_keep_prob = 0.0;
  expect_invalid(run(bad, 6), "conv1d: channel_keep_prob 0");
  expect_invalid(run(good, 2), "conv1d: in_len 2 < kernel 3");
  expect_invalid(run(good, 5), "moment_conv1d: input width 12 != in_len 5");

  // The forward passes and ConvApDeepSense run the same checks.
  const Matrix x(1, 7);
  expect_invalid([&] { conv1d_forward(good, x, 4); },
                 "conv1d: input width 7 != in_len 4");
  MlpSpec head;
  head.dims = {4 * 4, 3};
  const ConvNet net(6, 2, {good}, Mlp::make(head, rng));
  const ConvApDeepSense apd(net);
  expect_invalid([&] { apd.propagate(MeanVar(1, 10)); },
                 "ConvApDeepSense: input width 10 != input_len 6");
}

}  // namespace
}  // namespace apds
