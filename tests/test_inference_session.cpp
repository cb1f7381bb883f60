// InferenceSession: the zero-alloc steady-state contract (the whole point
// of planned arenas, also held by the in-place ConvApDeepSense and
// moment_rnn forms), f64 bit-identity against a test-local reference
// built from public pieces, ApDeepSense running its own sessions at every
// precision, and arena replanning.
#include "core/inference_session.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/precision.h"
#include "common/rng.h"
#include "conv/conv_apdeepsense.h"
#include "conv/rnn.h"
#include "core/adaptive_surrogate.h"
#include "core/apdeepsense.h"
#include "moment_reference.h"
#include "obs/alloc_stats.h"
#include "obs/metrics.h"
#include "platform/thread_pool.h"
#include "tensor/kernels/kernel_dispatch.h"
#include "uncertainty/apd_estimator.h"

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

Matrix random_matrix(std::size_t rows, std::size_t cols, Rng& rng) {
  Matrix m(rows, cols);
  for (std::size_t i = 0; i < rows; ++i)
    for (std::size_t j = 0; j < cols; ++j) m(i, j) = rng.normal();
  return m;
}

/// Restore thread-pool width and kernel backend after a test that pins
/// them, even on assertion failure.
struct GlobalKnobGuard {
  ~GlobalKnobGuard() {
    clear_global_kernel_backend();
    set_global_threads(0);
  }
};

TEST(InferenceSession, ShapesAndMetadataMatchTheNetwork) {
  Rng rng(11);
  const Mlp mlp = random_mlp({6, 16, 16, 3}, Activation::kRelu, 0.9, rng);
  const InferenceSession session(mlp);
  EXPECT_EQ(session.num_layers(), 3u);
  EXPECT_EQ(session.input_dim(), 6u);
  EXPECT_EQ(session.output_dim(), 3u);
  EXPECT_EQ(session.precision(), Precision::kF64);
  EXPECT_GT(session.weight_bytes(), 0u);
  EXPECT_GT(session.id(), 0u);

  const Matrix x = random_matrix(5, 6, rng);
  const MeanVar out = session.propagate(x);
  EXPECT_EQ(out.batch(), 5u);
  EXPECT_EQ(out.dim(), 3u);
  EXPECT_EQ(session.propagate_count(), 1u);

  // Exact packed footprints (what memory_bytes() reports). f64
  // and f32 keep W and b only (the f64 variance GEMM and the fused f32
  // tile square W as they read it, so no W∘W pack may come back
  // unnoticed); i8 keeps i8 W and W∘W plus one f32 scale per column each
  // and an f32 bias for the hidden layers, and an f32 W and b for the
  // moment head.
  std::size_t f64_bytes = 0, f32_bytes = 0, i8_bytes = 0;
  for (std::size_t l = 0; l < mlp.num_layers(); ++l) {
    const DenseLayer& layer = mlp.layer(l);
    const std::size_t w = layer.weight.size();
    const std::size_t b = layer.bias.size();
    f64_bytes += 8 * (w + b);
    f32_bytes += 4 * (w + b);
    i8_bytes += l + 1 < mlp.num_layers()
                    ? 2 * w + 2 * 4 * layer.out_dim() + 4 * b
                    : 4 * (w + b);
  }
  EXPECT_EQ(session.weight_bytes(), f64_bytes);
  SessionConfig f32_config;
  f32_config.precision = Precision::kF32;
  EXPECT_EQ(InferenceSession(mlp, f32_config).weight_bytes(), f32_bytes);
  SessionConfig i8_config;
  i8_config.precision = Precision::kI8;
  EXPECT_EQ(InferenceSession(mlp, i8_config).weight_bytes(), i8_bytes);
}

/// Exact (bitwise) equality of two output batches.
void expect_bit_identical(const MeanVar& got, const MeanVar& want) {
  ASSERT_EQ(got.batch(), want.batch());
  ASSERT_EQ(got.dim(), want.dim());
  for (std::size_t i = 0; i < got.batch(); ++i)
    for (std::size_t j = 0; j < got.dim(); ++j) {
      EXPECT_EQ(got.mean(i, j), want.mean(i, j)) << i << "," << j;
      EXPECT_EQ(got.var(i, j), want.var(i, j)) << i << "," << j;
    }
}

// One engine per precision: ApDeepSense::propagate IS its session. At f64
// on the scalar kernel tier the session, ApDeepSense and the test-local
// layer-by-layer reference (moment_reference.h) agree bit for bit: squaring
// W inside the moment tile is exactly a GEMM against a stored square(W)
// (KernelAgreement.F64PropagateMatchesScalarBackend bounds the wider
// tiers). At f32/i8 the
// estimator shares the session, every call counts on it, and it is built
// from the propagator's own surrogates (calibrated ones included), not
// re-derived from saturating_pieces.
TEST(InferenceSession, BitIdenticalToLegacyPropagateAcrossPrecisions) {
  Rng rng(29);
  const Mlp mlp = random_mlp({10, 24, 24, 4}, Activation::kTanh, 0.85, rng);
  const Matrix x = random_matrix(7, 10, rng);
  const MeanVar input = MeanVar::point(x);

  {
    const testing::ScalarKernelScope scalar;
    const ApDeepSense apd(mlp);
    const InferenceSession session(mlp);
    const MeanVar reference = testing::reference_propagate(apd, input);
    expect_bit_identical(session.propagate(input), reference);
    expect_bit_identical(apd.propagate(input, Precision::kF64), reference);
    EXPECT_EQ(apd.session(Precision::kF64)->propagate_count(), 1u);
  }

  const ApdEstimator estimator(mlp);
  const ApDeepSense& apd = estimator.propagator();
  const std::vector<PiecewiseLinear> calibrated =
      calibrate_surrogates(mlp, x, /*pieces=*/5);
  const ApDeepSense calibrated_apd(mlp, calibrated);
  for (const Precision precision : {Precision::kF32, Precision::kI8}) {
    SCOPED_TRACE(precision_name(precision));
    const std::shared_ptr<InferenceSession> session = apd.session(precision);
    EXPECT_EQ(estimator.session(precision).get(), session.get());
    EXPECT_EQ(session->precision(), precision);

    const std::uint64_t calls = session->propagate_count();
    (void)apd.propagate(input, precision);
    EXPECT_EQ(session->propagate_count(), calls + 1);
    (void)apd.propagate(input, precision);
    EXPECT_EQ(session->propagate_count(), calls + 2);

    SessionConfig cfg;
    cfg.precision = precision;
    const InferenceSession reference(mlp, calibrated, cfg);
    expect_bit_identical(calibrated_apd.propagate(input, precision),
                         reference.propagate(input));
  }
}

// ApDeepSense builds each precision's session lazily under its own mutex:
// threads racing on first use must all run the one session it keeps.
TEST(InferenceSession, ApDeepSenseBuildsOneSessionUnderConcurrentFirstUse) {
  Rng rng(37);
  const Mlp mlp = random_mlp({8, 16, 3}, Activation::kTanh, 0.9, rng);
  const MeanVar input = MeanVar::point(random_matrix(2, 8, rng));

  for (const Precision precision :
       {Precision::kF64, Precision::kF32, Precision::kI8}) {
    SCOPED_TRACE(precision_name(precision));
    const ApDeepSense apd(mlp);
    constexpr int kThreads = 4;
    std::vector<std::shared_ptr<InferenceSession>> seen(kThreads);
    std::vector<MeanVar> outs(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
      threads.emplace_back([&, t] {
        outs[t] = apd.propagate(input, precision);
        seen[t] = apd.session(precision);
      });
    for (std::thread& t : threads) t.join();

    for (int t = 0; t < kThreads; ++t) {
      EXPECT_EQ(seen[t].get(), seen[0].get());
      expect_bit_identical(outs[t], outs[0]);
    }
    EXPECT_EQ(seen[0]->precision(), precision);
    EXPECT_EQ(seen[0]->propagate_count(),
              static_cast<std::uint64_t>(kThreads));
  }
}

// The tentpole claim: a warmed-up propagate() into a reused output batch
// performs ZERO heap allocations, at every precision, for ReLU and the
// multi-piece tanh/sigmoid surrogates, on both the scalar and the
// natively-dispatched kernel tiers, with and without pool workers.
// Process-wide counters are used so a worker thread allocating would fail
// the test too, not just the calling thread.
TEST(InferenceSession, SteadyStatePropagateAllocatesNothing) {
  ASSERT_TRUE(obs::alloc_hooks_active());
  GlobalKnobGuard restore;
  Rng rng(43);
  std::vector<Mlp> mlps;
  for (const Activation act :
       {Activation::kRelu, Activation::kTanh, Activation::kSigmoid})
    mlps.push_back(random_mlp({12, 32, 32, 5}, act, 0.9, rng));
  const Matrix x = random_matrix(16, 12, rng);
  const MeanVar input = MeanVar::point(x);

  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    set_global_threads(threads);
    for (const KernelBackend backend :
         {KernelBackend::kScalar, best_supported_backend()}) {
      set_global_kernel_backend(backend);
      for (const Mlp& mlp : mlps) {
        for (const Precision precision :
             {Precision::kF64, Precision::kF32, Precision::kI8}) {
          SCOPED_TRACE(std::string(precision_name(precision)) + "/" +
                       activation_name(mlp.layer(0).act) + "/" +
                       kernel_backend_name(backend) + "/t" +
                       std::to_string(threads));
          SessionConfig cfg;
          cfg.precision = precision;
          const InferenceSession session(mlp, cfg);
          MeanVar out;
          // Warmup: plans the arena, sizes `out`, touches every pool
          // worker.
          for (int i = 0; i < 3; ++i) session.propagate(input, out);

          const obs::AllocCounters before = obs::process_alloc_counters();
          for (int i = 0; i < 5; ++i) session.propagate(input, out);
          const obs::AllocCounters delta =
              obs::process_alloc_counters() - before;
          EXPECT_EQ(delta.allocs, 0u);
          EXPECT_EQ(delta.bytes, 0u);
        }
      }
    }
  }
}

// The conv/RNN extensions hold the same contract through their in-place
// forms: a warmed-up ConvApDeepSense::propagate (conv stack on the thread's
// scratch and feature batch, then the head session) and moment_rnn (one
// input-map product, one hidden-state slot pair) allocate nothing, on the
// scalar and native tiers, with and without pool workers.
TEST(InferenceSession, ConvAndRnnInPlaceSteadyStateAllocatesNothing) {
  ASSERT_TRUE(obs::alloc_hooks_active());
  GlobalKnobGuard restore;
  Rng rng(61);
  std::vector<Conv1dLayer> convs;
  convs.push_back(make_conv1d(5, 6, 32, 2, Activation::kRelu, 0.9, rng));
  convs.push_back(make_conv1d(5, 32, 16, 2, Activation::kRelu, 0.9, rng));
  MlpSpec head;
  head.dims = {16 * 12, 24, 4};
  head.hidden_act = Activation::kRelu;
  head.hidden_keep_prob = 0.9;
  const ConvNet net(60, 6, std::move(convs), Mlp::make(head, rng));
  const ConvApDeepSense conv(net);
  const MeanVar conv_in = MeanVar::point(random_matrix(3, 60 * 6, rng));
  const RnnCell cell = make_rnn_cell(6, 48, Activation::kTanh, 0.9, rng);
  const Matrix seq = random_matrix(3, 6 * 10, rng);
  const auto tanh_pwl = PiecewiseLinear::for_activation(Activation::kTanh);

  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    set_global_threads(threads);
    for (const KernelBackend backend :
         {KernelBackend::kScalar, best_supported_backend()}) {
      set_global_kernel_backend(backend);
      SCOPED_TRACE(std::string(kernel_backend_name(backend)) + "/t" +
                   std::to_string(threads));
      MeanVar conv_out;
      MeanVar rnn_out;
      for (int i = 0; i < 3; ++i) {
        conv.propagate(conv_in, conv_out);
        moment_rnn(cell, seq, 10, tanh_pwl, rnn_out);
      }
      obs::AllocCounters before = obs::process_alloc_counters();
      for (int i = 0; i < 5; ++i) conv.propagate(conv_in, conv_out);
      obs::AllocCounters delta = obs::process_alloc_counters() - before;
      EXPECT_EQ(delta.allocs, 0u) << "ConvApDeepSense::propagate";
      EXPECT_EQ(delta.bytes, 0u) << "ConvApDeepSense::propagate";

      before = obs::process_alloc_counters();
      for (int i = 0; i < 5; ++i) moment_rnn(cell, seq, 10, tanh_pwl, rnn_out);
      delta = obs::process_alloc_counters() - before;
      EXPECT_EQ(delta.allocs, 0u) << "moment_rnn";
      EXPECT_EQ(delta.bytes, 0u) << "moment_rnn";
    }
  }
}

TEST(InferenceSession, LargerBatchReplansThenReturnsToSteadyState) {
  ASSERT_TRUE(obs::alloc_hooks_active());
  Rng rng(57);
  const Mlp mlp = random_mlp({8, 20, 3}, Activation::kRelu, 0.9, rng);
  const InferenceSession session(mlp);
  EXPECT_GT(session.planned_bytes(32), session.planned_bytes(4));

  const MeanVar small = MeanVar::point(random_matrix(4, 8, rng));
  const MeanVar large = MeanVar::point(random_matrix(32, 8, rng));
  MeanVar out;
  session.propagate(small, out);
  // Growing the batch replans (allocates once), then is steady again.
  session.propagate(large, out);
  session.propagate(large, out);
  const obs::AllocCounters before = obs::process_alloc_counters();
  session.propagate(large, out);
  // A smaller batch fits the larger plan: still zero allocations.
  session.propagate(small, out);
  const obs::AllocCounters delta = obs::process_alloc_counters() - before;
  EXPECT_EQ(delta.allocs, 0u);
}

}  // namespace
}  // namespace apds
