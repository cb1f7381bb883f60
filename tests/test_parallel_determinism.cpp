// The parallel kernels are designed to be bit-identical at any pool width:
// parallel_for partitions outputs into disjoint contiguous chunks and every
// kernel keeps each element's accumulation order equal to the serial loop,
// while MCDrop pre-splits one RNG stream per sample before fanning out.
// These tests pin that contract by diffing --threads 4 against --threads 1.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "conv/conv_apdeepsense.h"
#include "conv/rnn.h"
#include "core/apdeepsense.h"
#include "core/moment_activation.h"
#include "platform/thread_pool.h"
#include "tensor/gemm.h"
#include "tensor/kernels/kernel_dispatch.h"
#include "tensor/ops.h"
#include "uncertainty/mcdrop.h"

namespace apds {
namespace {

/// Run `fn` with the global pool pinned to `threads`; restores the default
/// width afterwards so tests cannot leak pool state.
template <typename Fn>
auto with_threads(std::size_t threads, Fn&& fn) {
  set_global_threads(threads);
  auto result = fn();
  set_global_threads(0);
  return result;
}

Matrix random_matrix(std::size_t r, std::size_t c, Rng& rng) {
  Matrix m(r, c);
  for (double& v : m.flat()) v = rng.normal();
  return m;
}

Mlp wide_net(Activation act, double keep_prob, Rng& rng) {
  MlpSpec spec;
  spec.dims = {16, 48, 48, 5};
  spec.hidden_act = act;
  spec.hidden_keep_prob = keep_prob;
  return Mlp::make(spec, rng);
}

TEST(ParallelDeterminism, GemmFamilyBitIdentical) {
  Rng rng(1);
  const Matrix a = random_matrix(67, 41, rng);
  const Matrix b = random_matrix(41, 53, rng);
  const Matrix bt = random_matrix(53, 41, rng);
  const Matrix at = random_matrix(41, 67, rng);
  auto run = [&] {
    Matrix c(67, 53), c_tn(67, 53), c_nt(67, 53);
    gemm(a, b, c);
    gemm_tn(at, b, c_tn);
    gemm_nt(a, bt, c_nt);
    std::vector<Matrix> out{c, c_tn, c_nt};
    return out;
  };
  const auto serial = with_threads(1, run);
  const auto parallel = with_threads(4, run);
  for (std::size_t i = 0; i < serial.size(); ++i)
    EXPECT_EQ(max_abs_diff(serial[i], parallel[i]), 0.0) << "kernel " << i;
}

TEST(ParallelDeterminism, ActivationMomentsBitIdentical) {
  Rng rng(2);
  const auto f = PiecewiseLinear::fit_tanh(7);
  MeanVar input(8, 97);
  for (double& v : input.mean.flat()) v = rng.normal();
  for (double& v : input.var.flat()) v = std::fabs(rng.normal());
  // Sprinkle deterministic lanes to cover the scalar-fallback path.
  input.var(0, 0) = 0.0;
  input.var(3, 50) = 1e-20;
  auto run = [&] {
    MeanVar copy = input;
    moment_activation_inplace(f, copy);
    return copy;
  };
  const auto serial = with_threads(1, run);
  const auto parallel = with_threads(4, run);
  EXPECT_EQ(max_abs_diff(serial.mean, parallel.mean), 0.0);
  EXPECT_EQ(max_abs_diff(serial.var, parallel.var), 0.0);
}

TEST(ParallelDeterminism, ApDeepSensePropagateBitIdentical) {
  Rng rng(3);
  const Mlp mlp = wide_net(Activation::kTanh, 0.9, rng);
  const ApDeepSense apd(mlp);
  const Matrix x = random_matrix(6, 16, rng);
  auto run = [&] { return apd.propagate(x); };
  const auto serial = with_threads(1, run);
  const auto parallel = with_threads(4, run);
  EXPECT_EQ(max_abs_diff(serial.mean, parallel.mean), 0.0);
  EXPECT_EQ(max_abs_diff(serial.var, parallel.var), 0.0);
}

TEST(ParallelDeterminism, F32KernelsBitIdentical) {
  // The single-precision fast path keeps the same chunking/accumulation
  // contract as f64: any pool width, same bits.
  Rng rng(9);
  const auto f = PiecewiseLinear::fit_tanh(7);
  MeanVarF input(8, 97);
  for (float& v : input.mean.flat()) v = static_cast<float>(rng.normal());
  for (float& v : input.var.flat())
    v = std::fabs(static_cast<float>(rng.normal()));
  input.var(0, 0) = 0.0f;  // exercise the deterministic fallback lane
  auto run = [&] {
    MeanVarF act = input;
    moment_activation_inplace(f, act);
    std::vector<MatrixF> out{act.mean, act.var};
    return out;
  };
  const auto serial = with_threads(1, run);
  const auto parallel = with_threads(4, run);
  for (std::size_t i = 0; i < serial.size(); ++i)
    EXPECT_EQ(max_abs_diff(serial[i], parallel[i]), 0.0) << "result " << i;
}

TEST(ParallelDeterminism, ApDeepSenseF32PropagateBitIdentical) {
  Rng rng(10);
  const Mlp mlp = wide_net(Activation::kTanh, 0.9, rng);
  const ApDeepSense apd(mlp);
  const MeanVar input = MeanVar::point(random_matrix(6, 16, rng));
  auto run = [&] { return apd.propagate(input, Precision::kF32); };
  const auto serial = with_threads(1, run);
  const auto parallel = with_threads(4, run);
  EXPECT_EQ(max_abs_diff(serial.mean, parallel.mean), 0.0);
  EXPECT_EQ(max_abs_diff(serial.var, parallel.var), 0.0);
}

TEST(ParallelDeterminism, DispatchedBackendsBitIdenticalAcrossPoolWidths) {
  // The bit-identity contract is per backend: each ISA tier keeps the
  // serial per-element accumulation order at every pool width (the i8
  // path adds dynamic per-row quantization, which is row-local and so
  // partition-invariant too). Pin it for every tier this CPU can run, at
  // every dispatched precision. 40 rows span three 16-row tile blocks, so
  // the pool really splits the moment tiles.
  struct Cleanup {
    ~Cleanup() { clear_global_kernel_backend(); }
  } cleanup;
  Rng rng(11);
  const Mlp mlp = wide_net(Activation::kTanh, 0.9, rng);
  const ApDeepSense apd(mlp);
  MeanVar input(40, 16);
  for (double& v : input.mean.flat()) v = rng.normal();
  for (double& v : input.var.flat()) v = std::fabs(rng.normal());
  for (const KernelBackend b : {KernelBackend::kScalar, KernelBackend::kAvx2,
                                KernelBackend::kAvx512}) {
    if (!kernel_backend_supported(b)) continue;
    set_global_kernel_backend(b);
    for (const Precision p :
         {Precision::kF64, Precision::kF32, Precision::kI8}) {
      auto run = [&] { return apd.propagate(input, p); };
      const auto serial = with_threads(1, run);
      const auto parallel = with_threads(4, run);
      EXPECT_EQ(max_abs_diff(serial.mean, parallel.mean), 0.0)
          << kernel_backend_name(b) << " " << precision_name(p) << " (mean)";
      EXPECT_EQ(max_abs_diff(serial.var, parallel.var), 0.0)
          << kernel_backend_name(b) << " " << precision_name(p) << " (var)";
    }
  }
}

TEST(ParallelDeterminism, McDropSamplesAndRngStateBitIdentical) {
  Rng rng(4);
  const Mlp mlp = wide_net(Activation::kRelu, 0.8, rng);
  const Matrix x = random_matrix(3, 16, rng);
  auto run = [&] {
    // Fresh seeded RNG per run: samples depend only on the seed, never on
    // the pool width, because one stream per sample is split up front.
    Rng sample_rng(99);
    auto samples = mcdrop_collect(mlp, x, 9, sample_rng);
    samples.push_back(Matrix(1, 1, sample_rng.normal()));  // post-state probe
    return samples;
  };
  const auto serial = with_threads(1, run);
  const auto parallel = with_threads(4, run);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t s = 0; s < serial.size(); ++s)
    EXPECT_EQ(max_abs_diff(serial[s], parallel[s]), 0.0) << "sample " << s;
}

TEST(ParallelDeterminism, McDropEstimatorBitIdentical) {
  Rng rng(5);
  const Mlp mlp = wide_net(Activation::kRelu, 0.8, rng);
  const Matrix x = random_matrix(2, 16, rng);
  auto run = [&] { return McDrop(mlp, 12, /*seed=*/7).predict_regression(x); };
  const auto serial = with_threads(1, run);
  const auto parallel = with_threads(4, run);
  EXPECT_EQ(max_abs_diff(serial.mean, parallel.mean), 0.0);
  EXPECT_EQ(max_abs_diff(serial.var, parallel.var), 0.0);
}

TEST(ParallelDeterminism, ConvApDeepSenseBitIdentical) {
  Rng rng(7);
  std::vector<Conv1dLayer> convs;
  convs.push_back(make_conv1d(3, 1, 4, 1, Activation::kRelu, 0.9, rng));
  convs.push_back(make_conv1d(3, 4, 2, 2, Activation::kRelu, 0.9, rng));
  MlpSpec head;
  head.dims = {8, 10, 2};
  head.hidden_act = Activation::kRelu;
  head.hidden_keep_prob = 0.9;
  const ConvNet net(12, 1, std::move(convs), Mlp::make(head, rng));
  const ConvApDeepSense apd(net);
  const Matrix x = random_matrix(5, 12, rng);
  auto run = [&] { return apd.propagate(x); };
  const auto serial = with_threads(1, run);
  const auto parallel = with_threads(4, run);
  EXPECT_EQ(max_abs_diff(serial.mean, parallel.mean), 0.0);
  EXPECT_EQ(max_abs_diff(serial.var, parallel.var), 0.0);
}

// Wide enough for the dispatched conv tile's register blocks (out
// channels 20 = 2 blocks + remainder lanes at every tier), several fixed
// window units per row and batch > 1, through the in-place form, at every
// kernel tier.
TEST(ParallelDeterminism, ConvApDeepSenseInPlaceBitIdenticalAtEveryTier) {
  Rng rng(17);
  std::vector<Conv1dLayer> convs;
  convs.push_back(make_conv1d(5, 3, 20, 1, Activation::kRelu, 0.9, rng));
  convs.push_back(make_conv1d(3, 20, 9, 2, Activation::kTanh, 0.8, rng));
  MlpSpec head;
  head.dims = {9 * 57, 16, 3};
  head.hidden_act = Activation::kRelu;
  head.hidden_keep_prob = 0.9;
  const ConvNet net(120, 3, std::move(convs), Mlp::make(head, rng));
  const ConvApDeepSense apd(net);
  MeanVar input(4, 120 * 3);
  for (double& v : input.mean.flat()) v = rng.normal();
  for (double& v : input.var.flat()) v = 0.1 * std::fabs(rng.normal());
  for (const KernelBackend b :
       {KernelBackend::kScalar, KernelBackend::kAvx2, KernelBackend::kAvx512}) {
    if (!kernel_backend_supported(b)) continue;
    SCOPED_TRACE(kernel_backend_name(b));
    set_global_kernel_backend(b);
    auto run = [&] {
      MeanVar out;
      apd.propagate(input, out);
      return out;
    };
    const auto serial = with_threads(1, run);
    const auto parallel = with_threads(4, run);
    EXPECT_EQ(max_abs_diff(serial.mean, parallel.mean), 0.0);
    EXPECT_EQ(max_abs_diff(serial.var, parallel.var), 0.0);
  }
  clear_global_kernel_backend();
}

TEST(ParallelDeterminism, MomentRnnBitIdenticalAtEveryTier) {
  Rng rng(19);
  const RnnCell cell = make_rnn_cell(5, 40, Activation::kTanh, 0.85, rng);
  const Matrix x = random_matrix(6, 5 * 9, rng);
  const auto surrogate = PiecewiseLinear::for_activation(Activation::kTanh);
  for (const KernelBackend b :
       {KernelBackend::kScalar, KernelBackend::kAvx2, KernelBackend::kAvx512}) {
    if (!kernel_backend_supported(b)) continue;
    SCOPED_TRACE(kernel_backend_name(b));
    set_global_kernel_backend(b);
    auto run = [&] {
      MeanVar out;
      moment_rnn(cell, x, 9, surrogate, out);
      return out;
    };
    const auto serial = with_threads(1, run);
    const auto parallel = with_threads(4, run);
    EXPECT_EQ(max_abs_diff(serial.mean, parallel.mean), 0.0);
    EXPECT_EQ(max_abs_diff(serial.var, parallel.var), 0.0);
  }
  clear_global_kernel_backend();
}

}  // namespace
}  // namespace apds
