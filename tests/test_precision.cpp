// f32 fast path vs f64 reference path: agreement bounds and dispatch.
//
// The single-precision kernels (packed f32 weights, fast_math polynomial
// erf/exp) trade ~7 decimal digits for throughput; these tests pin how much
// of that shows up end to end — per-kernel, through randomized deep MLPs
// with per-depth bounds, and on trained end-task metrics (MAE/NLL) — plus
// the --precision/APDS_PRECISION dispatch plumbing itself.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <vector>

#include "common/precision.h"
#include "common/rng.h"
#include "core/apdeepsense.h"
#include "eval/experiment.h"
#include "tensor/ops.h"

namespace apds {
namespace {

MeanVar random_meanvar(std::size_t batch, std::size_t dim, Rng& rng) {
  MeanVar mv(batch, dim);
  for (double& v : mv.mean.flat()) v = rng.normal();
  for (double& v : mv.var.flat()) v = std::fabs(rng.normal());
  return mv;
}

/// Largest elementwise |a - b| / (|a| + 1): absolute near zero, relative
/// for large magnitudes, so one bound covers both regimes.
double max_scaled_diff(const Matrix& a, const Matrix& b) {
  EXPECT_TRUE(a.same_shape(b));
  double worst = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double ref = a.flat()[i];
    const double d = std::fabs(ref - b.flat()[i]) / (std::fabs(ref) + 1.0);
    worst = std::max(worst, d);
  }
  return worst;
}

TEST(PrecisionParsing, NamesRoundTripAndBadValuesThrow) {
  EXPECT_EQ(parse_precision("f32"), Precision::kF32);
  EXPECT_EQ(parse_precision("F64"), Precision::kF64);
  EXPECT_EQ(parse_precision("float"), Precision::kF32);
  EXPECT_EQ(parse_precision("DOUBLE"), Precision::kF64);
  EXPECT_EQ(parse_precision("i8"), Precision::kI8);
  EXPECT_EQ(parse_precision("INT8"), Precision::kI8);
  EXPECT_STREQ(precision_name(Precision::kF32), "f32");
  EXPECT_STREQ(precision_name(Precision::kF64), "f64");
  EXPECT_STREQ(precision_name(Precision::kI8), "i8");
  EXPECT_THROW(parse_precision("f16"), InvalidArgument);
  EXPECT_THROW(parse_precision("i4"), InvalidArgument);
  EXPECT_THROW(parse_precision(""), InvalidArgument);
}

TEST(PrecisionDispatch, SetterOverridesEnvOverridesDefault) {
  // Guard: restore the unresolved state whatever happens.
  struct Cleanup {
    ~Cleanup() {
      ::unsetenv("APDS_PRECISION");
      clear_global_precision();
    }
  } cleanup;

  ::unsetenv("APDS_PRECISION");
  clear_global_precision();
  EXPECT_EQ(global_precision(), Precision::kF64);  // default

  ::setenv("APDS_PRECISION", "f32", 1);
  clear_global_precision();
  EXPECT_EQ(global_precision(), Precision::kF32);  // env fallback

  set_global_precision(Precision::kF64);
  EXPECT_EQ(global_precision(), Precision::kF64);  // setter wins over env

  ::setenv("APDS_PRECISION", "bogus", 1);
  clear_global_precision();
  EXPECT_EQ(global_precision(), Precision::kF64);  // bad env -> warn + f64
}

TEST(PrecisionAgreement, ActivationMomentsF32TracksF64) {
  Rng rng(13);
  for (const std::size_t pieces : {3UL, 7UL, 15UL}) {
    const auto f = PiecewiseLinear::fit_tanh(pieces);
    MeanVar ref = random_meanvar(8, 200, rng);
    MeanVarF fast = to_f32(ref);
    moment_activation_inplace(f, ref);
    moment_activation_inplace(f, fast);
    EXPECT_LE(max_scaled_diff(ref.mean, to_f64(fast.mean)), 5e-5)
        << pieces << " pieces";
    EXPECT_LE(max_scaled_diff(ref.var, to_f64(fast.var)), 5e-5)
        << pieces << " pieces";
    for (const float v : fast.var.flat()) EXPECT_GE(v, 0.0f);
  }
}

TEST(PrecisionAgreement, ActivationMomentsF32NearDeterministicFallback) {
  // Variance under the f32 threshold must take the linearization fallback,
  // matching the f64 scalar path to f32 rounding.
  const auto f = PiecewiseLinear::fit_tanh(7);
  MeanVarF mv(1, 3);
  mv.mean(0, 0) = 0.3f;
  mv.mean(0, 1) = -2.0f;
  mv.mean(0, 2) = 1.5f;
  mv.var(0, 0) = 0.0f;
  mv.var(0, 1) = 1e-13f;
  mv.var(0, 2) = 1e-13f;
  MeanVarF out = mv;
  moment_activation_inplace(f, out);
  for (std::size_t i = 0; i < 3; ++i) {
    const ScalarMoments sm = activation_moments(
        f, static_cast<double>(mv.mean(0, i)),
        static_cast<double>(mv.var(0, i)));
    EXPECT_NEAR(out.mean(0, i), sm.mean, 1e-6) << i;
    EXPECT_NEAR(out.var(0, i), sm.var, 1e-12) << i;
  }
}

Mlp deep_net(std::size_t hidden_layers, Activation act, Rng& rng) {
  MlpSpec spec;
  spec.dims.push_back(24);
  for (std::size_t l = 0; l < hidden_layers; ++l) spec.dims.push_back(64);
  spec.dims.push_back(10);
  spec.hidden_act = act;
  spec.hidden_keep_prob = 0.9;
  return Mlp::make(spec, rng);
}

TEST(PrecisionAgreement, DeepMlpDriftStaysBoundedPerDepth) {
  // Randomized deep MLPs at increasing depth; the f32 drift compounds per
  // layer, so each depth gets its own bound. The bounds are ~10x the
  // observed drift — tight enough to catch a broken kernel (which is off
  // by percent-level or worse), loose enough to survive reseeding.
  struct Case { std::size_t depth; double bound; };
  for (const Activation act : {Activation::kTanh, Activation::kRelu}) {
    for (const Case c : {Case{1, 2e-5}, Case{4, 1e-4}, Case{8, 5e-4}}) {
      Rng rng(100 + c.depth);
      const Mlp mlp = deep_net(c.depth, act, rng);
      const ApDeepSense apd(mlp);
      const MeanVar input = random_meanvar(6, 24, rng);

      const MeanVar ref = apd.propagate(input, Precision::kF64);
      const MeanVar fast = apd.propagate(input, Precision::kF32);
      EXPECT_LE(max_scaled_diff(ref.mean, fast.mean), c.bound)
          << activation_name(act) << " depth " << c.depth << " (mean)";
      EXPECT_LE(max_scaled_diff(ref.var, fast.var), c.bound)
          << activation_name(act) << " depth " << c.depth << " (var)";
    }
  }
}

TEST(PrecisionAgreement, I8DriftStaysBoundedPerDepth) {
  // The quantized path is deliberately lossy: 8-bit weights resolve ~2-3
  // decimal digits per channel and the per-layer drift compounds, so the
  // bounds sit two orders of magnitude above the f32 ones. What they pin
  // is the *shape*: drift grows smoothly with depth (a broken kernel or a
  // mis-scaled channel jumps to O(1)) and the variance stays nonnegative.
  struct Case { std::size_t depth; double bound; };
  for (const Activation act : {Activation::kTanh, Activation::kRelu}) {
    for (const Case c : {Case{1, 5e-2}, Case{4, 1e-1}, Case{8, 3e-1}}) {
      Rng rng(200 + c.depth);
      const Mlp mlp = deep_net(c.depth, act, rng);
      const ApDeepSense apd(mlp);
      const MeanVar input = random_meanvar(6, 24, rng);

      const MeanVar ref = apd.propagate(input, Precision::kF64);
      const MeanVar quant = apd.propagate(input, Precision::kI8);
      EXPECT_LE(max_scaled_diff(ref.mean, quant.mean), c.bound)
          << activation_name(act) << " depth " << c.depth << " (mean)";
      EXPECT_LE(max_scaled_diff(ref.var, quant.var), c.bound)
          << activation_name(act) << " depth " << c.depth << " (var)";
      for (const double v : quant.var.flat()) EXPECT_GE(v, 0.0);
    }
  }
}

TEST(PrecisionDispatch, GlobalPrecisionSelectsThePath) {
  struct Cleanup {
    ~Cleanup() { clear_global_precision(); }
  } cleanup;
  Rng rng(31);
  const Mlp mlp = deep_net(2, Activation::kTanh, rng);
  const ApDeepSense apd(mlp);
  const MeanVar input = random_meanvar(4, 24, rng);

  set_global_precision(Precision::kF32);
  const MeanVar ambient = apd.propagate(input);
  set_global_precision(Precision::kF64);
  const MeanVar reference = apd.propagate(input);

  const MeanVar explicit_f32 = apd.propagate(input, Precision::kF32);
  const MeanVar explicit_f64 = apd.propagate(input, Precision::kF64);
  // Ambient dispatch is exactly the explicit path, bit for bit.
  EXPECT_EQ(max_abs_diff(ambient.mean, explicit_f32.mean), 0.0);
  EXPECT_EQ(max_abs_diff(ambient.var, explicit_f32.var), 0.0);
  EXPECT_EQ(max_abs_diff(reference.mean, explicit_f64.mean), 0.0);
  // And the two paths genuinely differ (f32 really ran).
  EXPECT_GT(max_abs_diff(explicit_f32.mean, explicit_f64.mean), 0.0);
}

// ---- end-task drift: trained models, real metrics --------------------------

class PrecisionEndTaskTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() /
            ("apds_precision_test_" + std::to_string(::getpid())))
               .string();
    std::filesystem::remove_all(dir_);
    ZooConfig cfg;
    cfg.cache_dir = dir_;
    cfg.hidden_dim = 16;
    cfg.hidden_layers = 2;
    cfg.n_train = 150;
    cfg.n_val = 40;
    cfg.n_test = 30;
    cfg.train.epochs = 2;
    zoo_ = std::make_unique<ModelZoo>(cfg);
  }
  void TearDown() override {
    clear_global_precision();
    std::filesystem::remove_all(dir_);
  }

  std::vector<ModelPerfRow> run_at(TaskId task, Precision p) {
    ExperimentOptions opt;
    opt.mcdrop_ks = {3};
    opt.measure_host = false;
    set_global_precision(p);
    auto rows = run_model_perf(*zoo_, task, opt);
    clear_global_precision();
    return rows;
  }

  std::string dir_;
  std::unique_ptr<ModelZoo> zoo_;
};

TEST_F(PrecisionEndTaskTest, RegressionMetricsDriftStaysSmall) {
  // BPEst-style regression task: MAE and NLL under the f32 fast path must
  // track the f64 reference closely (the models are identical — only the
  // ApDeepSense propagation precision changes).
  const auto ref = run_at(TaskId::kBpest, Precision::kF64);
  const auto fast = run_at(TaskId::kBpest, Precision::kF32);
  ASSERT_EQ(ref.size(), fast.size());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    ASSERT_EQ(ref[i].config, fast[i].config);
    if (ref[i].config.find("ApDeepSense") == std::string::npos) continue;
    const double mae_rel =
        std::fabs(fast[i].primary - ref[i].primary) / ref[i].primary;
    EXPECT_LE(mae_rel, 1e-3) << ref[i].config << " MAE drift";
    EXPECT_NEAR(fast[i].nll, ref[i].nll, 1e-2) << ref[i].config;
  }
}

TEST_F(PrecisionEndTaskTest, ClassificationMetricsDriftStaysSmall) {
  // HHAR-style classification: accuracy (percent) and NLL.
  const auto ref = run_at(TaskId::kHhar, Precision::kF64);
  const auto fast = run_at(TaskId::kHhar, Precision::kF32);
  ASSERT_EQ(ref.size(), fast.size());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    ASSERT_EQ(ref[i].config, fast[i].config);
    if (ref[i].config.find("ApDeepSense") == std::string::npos) continue;
    // Argmax over f32-vs-f64 moments can flip a genuine near-tie; allow
    // one flipped sample out of the 30-test split, no more.
    EXPECT_NEAR(fast[i].primary, ref[i].primary, 100.0 / 30.0 + 0.1)
        << ref[i].config;
    EXPECT_NEAR(fast[i].nll, ref[i].nll, 2e-2) << ref[i].config;
  }
}

}  // namespace
}  // namespace apds
