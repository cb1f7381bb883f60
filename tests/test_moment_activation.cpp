#include "core/moment_activation.h"

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>

#include "common/rng.h"
#include "stats/gaussian.h"
#include "stats/running_stats.h"

namespace apds {
namespace {

// Analytic moments of ReLU(X), X ~ N(mu, sigma^2):
//   E[Y]  = mu Phi(mu/sigma) + sigma phi(mu/sigma)
//   E[Y^2]= (mu^2 + sigma^2) Phi(mu/sigma) + mu sigma phi(mu/sigma)
void relu_reference(double mu, double sigma, double& mean, double& var) {
  const double a = mu / sigma;
  const double phi = std_normal_pdf(a);
  const double cdf = std_normal_cdf(a);
  mean = mu * cdf + sigma * phi;
  const double second = (mu * mu + sigma * sigma) * cdf + mu * sigma * phi;
  var = second - mean * mean;
}

TEST(MomentActivation, ReluMatchesAnalyticFormula) {
  const auto relu = PiecewiseLinear::relu();
  for (double mu : {-2.0, -0.5, 0.0, 0.7, 3.0}) {
    for (double sigma : {0.1, 1.0, 2.5}) {
      double ref_mean = 0.0;
      double ref_var = 0.0;
      relu_reference(mu, sigma, ref_mean, ref_var);
      const ScalarMoments m = activation_moments(relu, mu, sigma * sigma);
      EXPECT_NEAR(m.mean, ref_mean, 1e-10) << "mu=" << mu << " s=" << sigma;
      EXPECT_NEAR(m.var, ref_var, 1e-9) << "mu=" << mu << " s=" << sigma;
    }
  }
}

TEST(MomentActivation, IdentityPreservesMoments) {
  const auto id = PiecewiseLinear::identity();
  const ScalarMoments m = activation_moments(id, -1.7, 2.3);
  EXPECT_NEAR(m.mean, -1.7, 1e-12);
  EXPECT_NEAR(m.var, 2.3, 1e-10);
}

TEST(MomentActivation, DeterministicInputShortCircuits) {
  const auto relu = PiecewiseLinear::relu();
  ScalarMoments m = activation_moments(relu, 2.0, 0.0);
  EXPECT_EQ(m.mean, 2.0);
  EXPECT_EQ(m.var, 0.0);
  m = activation_moments(relu, -2.0, 0.0);
  EXPECT_EQ(m.mean, 0.0);
  EXPECT_EQ(m.var, 0.0);

  const auto tanh7 = PiecewiseLinear::fit_tanh(7);
  m = activation_moments(tanh7, 0.4, 0.0);
  EXPECT_NEAR(m.mean, std::tanh(0.4), 0.05);  // bounded by the PWL fit error
  EXPECT_EQ(m.var, 0.0);
}

TEST(MomentActivation, NegativeVarianceRejected) {
  const auto relu = PiecewiseLinear::relu();
  EXPECT_THROW(activation_moments(relu, 0.0, -1.0), InvalidArgument);
}

TEST(MomentActivation, VarianceIsNonNegativeEverywhere) {
  const auto tanh7 = PiecewiseLinear::fit_tanh(7);
  Rng rng(1);
  for (int i = 0; i < 2000; ++i) {
    const double mu = rng.uniform(-8.0, 8.0);
    const double var = std::exp(rng.uniform(-20.0, 3.0));
    const ScalarMoments m = activation_moments(tanh7, mu, var);
    EXPECT_GE(m.var, 0.0);
    EXPECT_TRUE(std::isfinite(m.mean));
    EXPECT_TRUE(std::isfinite(m.var));
  }
}

TEST(MomentActivation, SaturatedGaussianPinsToTailValue) {
  const auto tanh7 = PiecewiseLinear::fit_tanh(7, 3.0);
  // Mean far in the right tail, tiny variance: output is pinned to the
  // surrogate's constant tail value (between tanh(3) and the asymptote 1).
  const ScalarMoments m = activation_moments(tanh7, 50.0, 0.01);
  EXPECT_NEAR(m.mean, tanh7.eval(50.0), 1e-9);
  EXPECT_GT(m.mean, std::tanh(3.0));
  EXPECT_LT(m.mean, 1.0);
  EXPECT_NEAR(m.var, 0.0, 1e-9);
}

TEST(MomentActivation, BatchInPlaceMatchesScalar) {
  const auto relu = PiecewiseLinear::relu();
  MeanVar mv(2, 3);
  Rng rng(2);
  for (double& v : mv.mean.flat()) v = rng.normal();
  for (double& v : mv.var.flat()) v = std::fabs(rng.normal());
  const MeanVar orig = mv;
  moment_activation_inplace(relu, mv);
  for (std::size_t r = 0; r < 2; ++r) {
    for (std::size_t c = 0; c < 3; ++c) {
      const ScalarMoments m =
          activation_moments(relu, orig.mean(r, c), orig.var(r, c));
      EXPECT_NEAR(mv.mean(r, c), m.mean, 1e-14);
      EXPECT_NEAR(mv.var(r, c), m.var, 1e-14);
    }
  }
}

TEST(MomentActivation, GaussianVecInPlaceMatchesScalar) {
  const auto tanh7 = PiecewiseLinear::fit_tanh(7);
  GaussianVec g(3);
  g.mean = {-1.0, 0.0, 2.0};
  g.var = {0.5, 1.0, 0.1};
  const GaussianVec orig = g;
  moment_activation_inplace(tanh7, g);
  for (std::size_t i = 0; i < 3; ++i) {
    const ScalarMoments m =
        activation_moments(tanh7, orig.mean[i], orig.var[i]);
    EXPECT_NEAR(g.mean[i], m.mean, 1e-14);
    EXPECT_NEAR(g.var[i], m.var, 1e-14);
  }
}

// Property sweep: closed-form moments of the PWL surrogate must match
// Monte-Carlo sampling of the same surrogate for all activations and a
// range of (mu, sigma).
//
// gtest names each case by printing the raw bytes of its ActCase, so every
// byte must be set: `tag` fills the slot between the 4-byte enum and the
// first double, which as implicit padding held whatever the stack held and
// renamed the cases from one build to the next. The tags are the bytes the
// cases have always been listed under.
struct ActCase {
  Activation act;
  std::array<std::uint8_t, 4> tag;
  double mu;
  double sigma;
};
static_assert(sizeof(ActCase) == 24, "ActCase must have no padding bytes");

class MomentActivationMc : public ::testing::TestWithParam<ActCase> {};

TEST_P(MomentActivationMc, ClosedFormMatchesSimulation) {
  const auto [act, tag, mu, sigma] = GetParam();
  const auto f = PiecewiseLinear::for_activation(act, 7);
  const ScalarMoments predicted =
      activation_moments(f, mu, sigma * sigma);

  Rng rng(99);
  RunningStats stats;
  const int n = 400000;
  for (int i = 0; i < n; ++i) stats.add(f.eval(rng.normal(mu, sigma)));

  EXPECT_NEAR(predicted.mean, stats.mean(),
              6.0 * stats.stddev() / std::sqrt(n) + 1e-9);
  // 6% tolerance: the sample variance of heavily skewed transforms (ReLU of
  // a mostly-negative Gaussian) has high kurtosis, so 400k samples still
  // leave a few percent of estimator noise.
  EXPECT_NEAR(predicted.var / (stats.variance() + 1e-12), 1.0, 0.06);
}

INSTANTIATE_TEST_SUITE_P(
    Activations, MomentActivationMc,
    ::testing::Values(
        ActCase{Activation::kRelu, {0x00, 0x00, 0x00, 0x00}, 0.0, 1.0},
        ActCase{Activation::kRelu, {0x5F, 0x74, 0x65, 0x73}, -1.5, 0.7},
        ActCase{Activation::kRelu, {0x00, 0x00, 0x00, 0x00}, 2.0, 3.0},
        ActCase{Activation::kTanh, {0x00, 0x00, 0x00, 0x00}, 0.0, 1.0},
        ActCase{Activation::kTanh, {0x00, 0x00, 0xD0, 0xEF}, 1.0, 0.5},
        ActCase{Activation::kTanh, {0x00, 0x00, 0x00, 0x00}, -2.5, 2.0},
        ActCase{Activation::kSigmoid, {0x03, 0x1E, 0x09, 0x00}, 0.5, 1.5},
        ActCase{Activation::kIdentity, {0x00, 0x00, 0xC5, 0xCA}, -3.0,
                2.0}));

}  // namespace
}  // namespace apds
