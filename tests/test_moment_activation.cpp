#include "core/moment_activation.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <ostream>
#include <vector>

#include "common/rng.h"
#include "stats/gaussian.h"
#include "stats/running_stats.h"
#include "tensor/kernels/kernel_dispatch.h"

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

// Hostile lanes through the f64 batch path (the contract in
// moment_activation.h), at every supported kernel tier. One tile mixes
// them with ordinary lanes, so a bad lane must not leak into its
// neighbours either. Every tier must give the same outcome: the same
// NaN/Inf pattern, exact equality on the near-deterministic lanes (the
// scalar fixup), agreement with the libm oracle on the finite ones.
TEST(MomentActivation, F64BatchHostileLanesFollowTheContractAtEveryTier) {
  struct Cleanup {
    ~Cleanup() { clear_global_kernel_backend(); }
  } cleanup;
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double denorm = std::numeric_limits<double>::denorm_min();
  struct Lane {
    double mu, var;
  };
  const std::vector<Lane> lanes = {
      {0.3, 0.7},     {nan, 1.0},    {inf, 1.0},      {-inf, 1.0},
      {0.4, inf},     {0.5, 1e30},   {-0.2, 1e-310},  {0.6, denorm},
      {-1.1, 0.0},    {2.0, 0.0},    {nan, 0.0},      {inf, 0.0},
      {-inf, 0.0},    {-2.5, 4.0},   {8.0, 1e-4},     {0.0, 1e-12},
  };
  std::vector<KernelBackend> tiers;
  for (const KernelBackend b :
       {KernelBackend::kScalar, KernelBackend::kAvx2, KernelBackend::kAvx512})
    if (kernel_backend_supported(b)) tiers.push_back(b);

  for (const Activation act : {Activation::kIdentity, Activation::kRelu,
                               Activation::kTanh, Activation::kSigmoid}) {
    SCOPED_TRACE(activation_name(act));
    const PiecewiseLinear f = PiecewiseLinear::for_activation(act, 7);
    std::vector<double> ref_m, ref_v;
    for (const KernelBackend back : tiers) {
      SCOPED_TRACE(kernel_backend_name(back));
      set_global_kernel_backend(back);
      std::vector<double> m, v;
      for (const Lane& l : lanes) {
        m.push_back(l.mu);
        v.push_back(l.var);
      }
      moment_activation_batch(f, m.data(), v.data(), m.size());
      for (std::size_t i = 0; i < lanes.size(); ++i) {
        const Lane& l = lanes[i];
        SCOPED_TRACE(::testing::Message()
                     << "lane " << i << " mu=" << l.mu << " var=" << l.var);
        const bool near_det = l.var < kDeterministicVar;
        if (std::isnan(l.var) || std::isinf(l.var) || !std::isfinite(l.mu)) {
          // A non-finite input never comes back finite: with a stochastic
          // variance the output variance is NaN; a near-deterministic lane
          // keeps the linearization's finite k^2 var.
          EXPECT_FALSE(std::isfinite(m[i]));
          if (near_det) {
            EXPECT_TRUE(std::isfinite(v[i]));
          } else {
            EXPECT_TRUE(std::isnan(v[i]));
            // The libm oracle follows the same contract.
            const ScalarMoments want = activation_moments(f, l.mu, l.var);
            EXPECT_FALSE(std::isfinite(want.mean));
            EXPECT_TRUE(std::isnan(want.var));
          }
        } else if (near_det) {
          // Zero and denormal variances: the linearization, exactly.
          const ScalarMoments want = activation_moments(f, l.mu, l.var);
          EXPECT_EQ(m[i], want.mean);
          EXPECT_EQ(v[i], want.var);
        } else {
          const ScalarMoments want = activation_moments(f, l.mu, l.var);
          const double scale = std::max(1.0, l.mu * l.mu + l.var);
          EXPECT_TRUE(std::isfinite(m[i]));
          EXPECT_TRUE(std::isfinite(v[i]));
          EXPECT_GE(v[i], 0.0);
          EXPECT_LE(std::fabs(m[i] - want.mean) / scale, 1e-12);
          EXPECT_LE(std::fabs(v[i] - want.var) / scale, 1e-12);
        }
      }
      if (ref_m.empty()) {
        ref_m = m;
        ref_v = v;
        continue;
      }
      for (std::size_t i = 0; i < lanes.size(); ++i) {
        EXPECT_EQ(std::isnan(m[i]), std::isnan(ref_m[i])) << "lane " << i;
        EXPECT_EQ(std::isnan(v[i]), std::isnan(ref_v[i])) << "lane " << i;
        EXPECT_EQ(std::isinf(m[i]), std::isinf(ref_m[i])) << "lane " << i;
        EXPECT_EQ(std::isinf(v[i]), std::isinf(ref_v[i])) << "lane " << i;
        if (lanes[i].var < kDeterministicVar && std::isfinite(m[i])) {
          EXPECT_EQ(m[i], ref_m[i]) << "lane " << i;
          EXPECT_EQ(v[i], ref_v[i]) << "lane " << i;
        }
      }
    }

    // Negative and NaN variances are typed errors, raised before any lane
    // is written.
    for (const double bad : {-1.0, -denorm, nan}) {
      std::vector<double> m = {0.1, 0.2, 0.3};
      std::vector<double> v = {1.0, bad, 1.0};
      EXPECT_THROW(moment_activation_batch(f, m.data(), v.data(), 3),
                   InvalidArgument);
      EXPECT_EQ(m[0], 0.1);
      EXPECT_EQ(v[0], 1.0);
    }
  }

  // Huge variances (1e20, 1e30): each finite piece's partial moments are
  // clamped to their exact bounds, so a saturating surrogate returns its
  // two-point limit — half the mass in each constant tail — instead of
  // rounding noise scaled by sigma^2, in the f64 and f32 batch paths at
  // every tier and in activation_moments. relu's two pieces are unbounded,
  // so it keeps the plain closed form. The f32 tile's polynomial pdf/cdf
  // hold it to 1e-5 relative there.
  for (const Activation act :
       {Activation::kTanh, Activation::kSigmoid, Activation::kRelu}) {
    SCOPED_TRACE(activation_name(act));
    const PiecewiseLinear f = PiecewiseLinear::for_activation(act, 7);
    const double c_lo = f.pieces().front().c;
    const double c_hi = f.pieces().back().c;
    for (const KernelBackend back : tiers) {
      set_global_kernel_backend(back);
      for (const double var : {1e20, 1e30})
        for (const double mu : {-3.0, 0.5, 3.0}) {
          SCOPED_TRACE(::testing::Message() << kernel_backend_name(back)
                                            << " mu=" << mu << " var=" << var);
          double m = mu;
          double v = var;
          moment_activation_batch(f, &m, &v, 1);
          float m32 = static_cast<float>(mu);
          float v32 = static_cast<float>(var);
          moment_activation_batch(f, &m32, &v32, 1);
          const ScalarMoments single = activation_moments(f, mu, var);
          if (act == Activation::kRelu) {
            const double sigma = std::sqrt(var);
            const double z = mu / sigma;
            const double cdf = 0.5 * std::erfc(-z / std::sqrt(2.0));
            const double pdf =
                std::exp(-0.5 * z * z) / std::sqrt(2.0 * std::acos(-1.0));
            const double ey = mu * cdf + sigma * pdf;
            const double vy =
                (mu * mu + var) * cdf + mu * sigma * pdf - ey * ey;
            for (const double got : {m, single.mean})
              EXPECT_LE(std::fabs(got - ey) / ey, 1e-12);
            for (const double got : {v, single.var})
              EXPECT_LE(std::fabs(got - vy) / vy, 1e-12);
            EXPECT_LE(std::fabs(static_cast<double>(m32) - ey) / ey, 1e-5);
            EXPECT_LE(std::fabs(static_cast<double>(v32) - vy) / vy, 1e-5);
          } else {
            const double half_gap = 0.5 * (c_hi - c_lo);
            for (const double got : {m, single.mean})
              EXPECT_NEAR(got, 0.5 * (c_lo + c_hi), 1e-6);
            for (const double got : {v, single.var})
              EXPECT_NEAR(got, half_gap * half_gap, 1e-6);
            EXPECT_NEAR(m32, 0.5 * (c_lo + c_hi), 1e-5);
            EXPECT_NEAR(v32, half_gap * half_gap, 1e-5);
          }
        }
    }
  }
}

// Property sweep: closed-form moments of the PWL surrogate must match
// Monte-Carlo sampling of the same surrogate for all activations and a
// range of (mu, sigma).
struct ActCase {
  Activation act;
  double mu;
  double sigma;
};

// Names each case "<activation> mu=<mu> sigma=<sigma>" in test listings.
void PrintTo(const ActCase& c, std::ostream* os) {
  *os << activation_name(c.act) << " mu=" << c.mu << " sigma=" << c.sigma;
}

class MomentActivationMc : public ::testing::TestWithParam<ActCase> {};

TEST_P(MomentActivationMc, ClosedFormMatchesSimulation) {
  const auto [act, mu, sigma] = GetParam();
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
        ActCase{Activation::kRelu, 0.0, 1.0},
        ActCase{Activation::kRelu, -1.5, 0.7},
        ActCase{Activation::kRelu, 2.0, 3.0},
        ActCase{Activation::kTanh, 0.0, 1.0},
        ActCase{Activation::kTanh, 1.0, 0.5},
        ActCase{Activation::kTanh, -2.5, 2.0},
        ActCase{Activation::kSigmoid, 0.5, 1.5},
        ActCase{Activation::kIdentity, -3.0, 2.0}));

}  // namespace
}  // namespace apds
