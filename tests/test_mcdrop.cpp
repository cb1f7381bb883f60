#include "uncertainty/mcdrop.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "obs/alloc_stats.h"
#include "platform/thread_pool.h"
#include "stats/special.h"
#include "tensor/kernels/kernel_dispatch.h"
#include "tensor/ops.h"

namespace apds {
namespace {

Mlp small_net(double keep_prob, Rng& rng) {
  MlpSpec spec;
  spec.dims = {3, 8, 2};
  spec.hidden_act = Activation::kRelu;
  spec.hidden_keep_prob = keep_prob;
  return Mlp::make(spec, rng);
}

bool bytes_equal(const Matrix& a, const Matrix& b) {
  return a.same_shape(b) &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

double max_scaled_diff(const Matrix& a, const Matrix& b) {
  double worst = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i)
    worst = std::max(worst, std::fabs(a.flat()[i] - b.flat()[i]) /
                                (std::fabs(a.flat()[i]) + 1.0));
  return worst;
}

std::vector<KernelBackend> supported_backends() {
  std::vector<KernelBackend> out;
  for (const KernelBackend b :
       {KernelBackend::kScalar, KernelBackend::kAvx2, KernelBackend::kAvx512})
    if (kernel_backend_supported(b)) out.push_back(b);
  return out;
}

/// MCDrop-k the per-sample way: one Mlp::forward_stochastic per sample,
/// sample s on the s-th serial split of `rng`.
std::vector<Matrix> per_sample_reference(const Mlp& mlp, const Matrix& x,
                                         std::size_t k, Rng& rng) {
  std::vector<Matrix> out;
  for (std::size_t s = 0; s < k; ++s) {
    Rng stream = rng.split();
    out.push_back(mlp.forward_stochastic(x, stream));
  }
  return out;
}

// The stacked pass against per-sample Mlp::forward_stochastic for equal
// seeds, sample by sample: at batch 1 (every sample in one stacked group)
// and at batch 70 (past the 64-row budget: one sample per group), for
// relu/tanh/sigmoid nets with dropout on the input layer too, and for a
// net that drops nothing. Bit-identical on the scalar tier, within 1e-12
// scaled on avx2/avx512, and the caller's rng ends in the same state.
TEST(McDropCollect, StackedSamplesMatchPerSampleForwardAtEveryTier) {
  struct Cleanup {
    ~Cleanup() { clear_global_kernel_backend(); }
  } cleanup;
  Rng rng(11);
  struct NetCase {
    Activation act;
    double input_keep, hidden_keep;
  };
  for (const NetCase nc : {NetCase{Activation::kRelu, 1.0, 0.8},
                           NetCase{Activation::kTanh, 0.9, 0.7},
                           NetCase{Activation::kSigmoid, 1.0, 0.9},
                           NetCase{Activation::kRelu, 1.0, 1.0}}) {
    MlpSpec spec;
    spec.dims = {9, 37, 70, 3};
    spec.hidden_act = nc.act;
    spec.input_keep_prob = nc.input_keep;
    spec.hidden_keep_prob = nc.hidden_keep;
    const Mlp mlp = Mlp::make(spec, rng);
    for (const std::size_t batch : {std::size_t{1}, std::size_t{70}}) {
      Matrix x(batch, 9);
      for (double& v : x.flat()) v = rng.normal();
      for (const std::size_t k : {std::size_t{13}, std::size_t{50}}) {
        SCOPED_TRACE(::testing::Message()
                     << activation_name(nc.act) << " keep " << nc.input_keep
                     << "/" << nc.hidden_keep << " batch " << batch << " k "
                     << k);
        Rng ref_rng(1000 + k);
        const auto want = per_sample_reference(mlp, x, k, ref_rng);
        const double ref_next = ref_rng.uniform();
        for (const KernelBackend back : supported_backends()) {
          set_global_kernel_backend(back);
          Rng got_rng(1000 + k);
          const auto got = mcdrop_collect(mlp, x, k, got_rng);
          EXPECT_EQ(got_rng.uniform(), ref_next) << kernel_backend_name(back);
          ASSERT_EQ(got.size(), k);
          for (std::size_t s = 0; s < k; ++s) {
            if (back == KernelBackend::kScalar) {
              EXPECT_TRUE(bytes_equal(want[s], got[s])) << "sample " << s;
            }
            EXPECT_LE(max_scaled_diff(want[s], got[s]), 1e-12)
                << kernel_backend_name(back) << " sample " << s;
          }
        }
      }
    }
  }
}

// The estimator summarizes straight from the stacked block when k * batch
// fits one group, and through mcdrop_collect otherwise: both give the bits
// of mcdrop_*_from_samples over the collected samples of the same stream.
TEST(McDropEstimator, PredictMatchesCollectedSummaries) {
  Rng rng(12);
  MlpSpec spec;
  spec.dims = {5, 24, 24, 4};
  spec.hidden_keep_prob = 0.8;
  const Mlp mlp = Mlp::make(spec, rng);
  for (const std::size_t batch : {std::size_t{1}, std::size_t{3},
                                  std::size_t{40}}) {
    SCOPED_TRACE(::testing::Message() << "batch " << batch);
    Matrix x(batch, 5);
    for (double& v : x.flat()) v = rng.normal();
    const McDrop mc(mlp, 20, /*seed=*/31);
    Rng seed_rng(31);
    Rng stream = seed_rng.split();
    const auto samples = mcdrop_collect(mlp, x, 20, stream);
    const auto reg = mc.predict_regression(x);
    const auto want_reg = mcdrop_regression_from_samples(samples, 20);
    EXPECT_TRUE(bytes_equal(reg.mean, want_reg.mean));
    EXPECT_TRUE(bytes_equal(reg.var, want_reg.var));

    Rng stream2 = seed_rng.split();
    const auto samples2 = mcdrop_collect(mlp, x, 20, stream2);
    const auto cls = mc.predict_classification(x);
    EXPECT_TRUE(bytes_equal(
        cls.probs, mcdrop_classification_from_samples(samples2, 20).probs));
  }
}

// The summaries keep the per-element operation order of the Matrix-op
// formulation they replaced (sum, scale, squared deviations via
// square(sub(.)), scale, floor; softmax per row), so outputs are
// bit-identical to it, and they allocate only the returned matrices. A
// warmed-up batch-1 predict allocates only the returned predictive, at
// pool widths 1 and 4.
TEST(McDropSummaries, BitIdenticalToMatrixOpsAndAllocateOnlyTheResult) {
  ASSERT_TRUE(obs::alloc_hooks_active());
  Rng rng(13);
  std::vector<Matrix> samples;
  for (int s = 0; s < 9; ++s) {
    Matrix m(6, 5);
    for (double& v : m.flat()) v = 3.0 * rng.normal();
    samples.push_back(m);
  }
  const std::size_t k = 7;

  Matrix mean(6, 5), var(6, 5);
  for (std::size_t s = 0; s < k; ++s) add_inplace(mean, samples[s]);
  scale_inplace(mean, 1.0 / static_cast<double>(k));
  for (std::size_t s = 0; s < k; ++s)
    add_inplace(var, square(sub(samples[s], mean)));
  scale_inplace(var, 1.0 / static_cast<double>(k - 1));
  for (double& v : var.flat()) v = std::max(v, 0.5);
  Matrix probs(6, 5);
  for (std::size_t s = 0; s < k; ++s)
    for (std::size_t r = 0; r < 6; ++r) {
      const auto p = softmax(samples[s].row(r));
      for (std::size_t c = 0; c < 5; ++c) probs(r, c) += p[c];
    }
  scale_inplace(probs, 1.0 / static_cast<double>(k));

  obs::AllocCounters before = obs::thread_alloc_counters();
  const auto reg = mcdrop_regression_from_samples(samples, k, 0.5);
  EXPECT_EQ((obs::thread_alloc_counters() - before).allocs, 2u);
  before = obs::thread_alloc_counters();
  const auto cls = mcdrop_classification_from_samples(samples, k);
  EXPECT_EQ((obs::thread_alloc_counters() - before).allocs, 1u);
  EXPECT_TRUE(bytes_equal(reg.mean, mean));
  EXPECT_TRUE(bytes_equal(reg.var, var));
  EXPECT_TRUE(bytes_equal(cls.probs, probs));

  MlpSpec spec;
  spec.dims = {10, 64, 64, 3};
  spec.hidden_keep_prob = 0.9;
  const Mlp mlp = Mlp::make(spec, rng);
  Matrix x(1, 10, 0.3);
  const McDrop mc(mlp, 50, /*seed=*/5);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    set_global_threads(threads);
    mc.predict_regression(x);  // warm the thread's scratch
    before = obs::process_alloc_counters();
    const auto pred = mc.predict_regression(x);
    EXPECT_EQ((obs::process_alloc_counters() - before).allocs, 2u)
        << "threads " << threads;
    before = obs::process_alloc_counters();
    const auto pc = mc.predict_classification(x);
    EXPECT_EQ((obs::process_alloc_counters() - before).allocs, 1u)
        << "threads " << threads;
  }
  set_global_threads(0);
}

TEST(McDropCollect, ReturnsKSamplesOfRightShape) {
  Rng rng(1);
  const Mlp mlp = small_net(0.8, rng);
  Matrix x(4, 3, 0.5);
  const auto samples = mcdrop_collect(mlp, x, 7, rng);
  ASSERT_EQ(samples.size(), 7u);
  for (const auto& s : samples) {
    EXPECT_EQ(s.rows(), 4u);
    EXPECT_EQ(s.cols(), 2u);
  }
}

TEST(McDropRegression, PrefixSummariesMatchDirectComputation) {
  Rng rng(2);
  const Mlp mlp = small_net(0.7, rng);
  Matrix x(2, 3, 1.0);
  const auto samples = mcdrop_collect(mlp, x, 10, rng);

  const auto pred = mcdrop_regression_from_samples(samples, 4);
  // Recompute directly from the first 4 samples.
  for (std::size_t r = 0; r < 2; ++r) {
    for (std::size_t c = 0; c < 2; ++c) {
      double mean = 0.0;
      for (int s = 0; s < 4; ++s) mean += samples[s](r, c);
      mean /= 4.0;
      double var = 0.0;
      for (int s = 0; s < 4; ++s) {
        const double d = samples[s](r, c) - mean;
        var += d * d;
      }
      var /= 3.0;  // unbiased
      EXPECT_NEAR(pred.mean(r, c), mean, 1e-12);
      EXPECT_NEAR(pred.var(r, c), std::max(var, 1e-6), 1e-12);
    }
  }
}

TEST(McDropRegression, VarianceFloorApplied) {
  // A network with no dropout produces identical samples -> variance 0,
  // which must be floored.
  Rng rng(3);
  const Mlp mlp = small_net(1.0, rng);
  Matrix x(1, 3, 1.0);
  const auto samples = mcdrop_collect(mlp, x, 5, rng);
  const auto pred = mcdrop_regression_from_samples(samples, 5, 1e-4);
  for (double v : pred.var.flat()) EXPECT_EQ(v, 1e-4);
}

TEST(McDropRegression, RequiresAtLeastTwoSamples) {
  Rng rng(4);
  const Mlp mlp = small_net(0.9, rng);
  Matrix x(1, 3);
  const auto samples = mcdrop_collect(mlp, x, 3, rng);
  EXPECT_THROW(mcdrop_regression_from_samples(samples, 1), InvalidArgument);
  EXPECT_THROW(mcdrop_regression_from_samples(samples, 4), InvalidArgument);
}

TEST(McDropClassification, ProbabilitiesAreValid) {
  Rng rng(5);
  const Mlp mlp = small_net(0.8, rng);
  Matrix x(3, 3, 0.2);
  const auto samples = mcdrop_collect(mlp, x, 6, rng);
  const auto pred = mcdrop_classification_from_samples(samples, 6);
  for (std::size_t r = 0; r < 3; ++r) {
    double total = 0.0;
    for (std::size_t c = 0; c < 2; ++c) {
      EXPECT_GE(pred.probs(r, c), 0.0);
      total += pred.probs(r, c);
    }
    EXPECT_NEAR(total, 1.0, 1e-12);
  }
}

TEST(McDropEstimator, DeterministicForConstructionSeed) {
  Rng rng(6);
  const Mlp mlp = small_net(0.6, rng);
  Matrix x(2, 3, 0.4);
  McDrop a(mlp, 5, /*seed=*/77);
  McDrop b(mlp, 5, /*seed=*/77);
  const auto pa = a.predict_regression(x);
  const auto pb = b.predict_regression(x);
  EXPECT_LT(max_abs_diff(pa.mean, pb.mean), 1e-15);
  EXPECT_LT(max_abs_diff(pa.var, pb.var), 1e-15);
}

TEST(McDropEstimator, NameEncodesK) {
  Rng rng(7);
  const Mlp mlp = small_net(0.9, rng);
  EXPECT_EQ(McDrop(mlp, 30, 1).name(), "MCDrop-30");
  EXPECT_EQ(McDrop(mlp, 30, 1).k(), 30u);
  EXPECT_THROW(McDrop(mlp, 1, 1), InvalidArgument);
}

TEST(McDropEstimator, MeanConvergesToExpectationWithLargeK) {
  Rng rng(8);
  const Mlp mlp = small_net(0.7, rng);
  Matrix x(1, 3, 1.0);
  McDrop big(mlp, 4000, /*seed=*/9);
  const auto pred = big.predict_regression(x);
  // Large-k MCDrop mean approaches the analytic expectation over masks; for
  // ReLU nets the deterministic pass is a good proxy (exact for the linear
  // part, Jensen-gap for ReLU), so allow a loose tolerance.
  const Matrix det = mlp.forward_deterministic(x);
  for (std::size_t j = 0; j < 2; ++j) {
    const double sd = std::sqrt(pred.var(0, j));
    EXPECT_NEAR(pred.mean(0, j), det(0, j), 0.5 * sd + 0.05);
  }
}

}  // namespace
}  // namespace apds
