// Runtime kernel dispatch: parsing, CPUID probe ordering, the
// setter > APDS_KERNEL > probe precedence, and — the part that actually
// guards correctness — per-backend agreement of every dispatched kernel
// against the scalar reference table on identical inputs. The scalar TU is
// compiled with project-default flags, so it is the portable baseline the
// wider tiers must reproduce within documented tolerances (f32 and f64
// kernels: FMA contraction and shuffle order change rounding, not math; i8
// kernels: integer accumulation is exact, only the f32 dequant epilogue
// may differ).
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <limits>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "conv/moment_conv.h"
#include "core/apdeepsense.h"
#include "core/moment_activation.h"
#include "core/moment_fused.h"
#include "core/moment_linear.h"
#include "moment_reference.h"
#include "nn/activation.h"
#include "nn/mlp.h"
#include "platform/thread_pool.h"
#include "tensor/gemm.h"
#include "tensor/kernels/kernel_dispatch.h"
#include "tensor/ops.h"
#include "tensor/quantize.h"

namespace apds {
namespace {

std::vector<KernelBackend> supported_backends() {
  std::vector<KernelBackend> out;
  for (const KernelBackend b :
       {KernelBackend::kScalar, KernelBackend::kAvx2, KernelBackend::kAvx512})
    if (kernel_backend_supported(b)) out.push_back(b);
  return out;
}

MatrixF random_matrix_f32(std::size_t r, std::size_t c, Rng& rng) {
  MatrixF m(r, c);
  for (float& v : m.flat()) v = static_cast<float>(rng.normal());
  return m;
}

/// Same scaled metric as test_precision: absolute near zero, relative for
/// large magnitudes.
float max_scaled_diff(const MatrixF& a, const MatrixF& b) {
  EXPECT_EQ(a.rows(), b.rows());
  EXPECT_EQ(a.cols(), b.cols());
  float worst = 0.0f;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const float ref = a.flat()[i];
    const float d = std::fabs(ref - b.flat()[i]) / (std::fabs(ref) + 1.0f);
    worst = std::max(worst, d);
  }
  return worst;
}

/// f64 twin of max_scaled_diff.
double max_scaled_diff(const Matrix& a, const Matrix& b) {
  EXPECT_EQ(a.rows(), b.rows());
  EXPECT_EQ(a.cols(), b.cols());
  double worst = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double ref = a.flat()[i];
    const double d = std::fabs(ref - b.flat()[i]) / (std::fabs(ref) + 1.0);
    worst = std::max(worst, d);
  }
  return worst;
}

bool bytes_equal(const Matrix& a, const Matrix& b) {
  return a.same_shape(b) &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

TEST(KernelParsing, NamesRoundTripAndBadValuesThrow) {
  EXPECT_EQ(parse_kernel_backend("scalar"), KernelBackend::kScalar);
  EXPECT_EQ(parse_kernel_backend("AVX2"), KernelBackend::kAvx2);
  EXPECT_EQ(parse_kernel_backend("Avx512"), KernelBackend::kAvx512);
  // sse2 is the honest spelling of the x86-64 baseline tier.
  EXPECT_EQ(parse_kernel_backend("sse2"), KernelBackend::kScalar);
  EXPECT_STREQ(kernel_backend_name(KernelBackend::kScalar), "scalar");
  EXPECT_STREQ(kernel_backend_name(KernelBackend::kAvx2), "avx2");
  EXPECT_STREQ(kernel_backend_name(KernelBackend::kAvx512), "avx512");
  EXPECT_THROW(parse_kernel_backend("avx"), InvalidArgument);
  EXPECT_THROW(parse_kernel_backend("neon"), InvalidArgument);
  EXPECT_THROW(parse_kernel_backend(""), InvalidArgument);
}

TEST(KernelProbe, TiersAreOrderedAndScalarAlwaysRuns) {
  // Scalar is compiled with project-default flags: every CPU executes it.
  EXPECT_TRUE(kernel_backend_supported(KernelBackend::kScalar));
  // Support is downward closed: a CPU at level L executes all levels <= L.
  const KernelBackend best = best_supported_backend();
  for (const KernelBackend b :
       {KernelBackend::kScalar, KernelBackend::kAvx2, KernelBackend::kAvx512})
    EXPECT_EQ(kernel_backend_supported(b),
              static_cast<int>(b) <= static_cast<int>(best));
  // The probe is cached — repeated calls agree.
  EXPECT_EQ(best_supported_backend(), best);
}

TEST(KernelDispatch, SetterOverridesEnvOverridesProbe) {
  struct Cleanup {
    ~Cleanup() {
      ::unsetenv("APDS_KERNEL");
      clear_global_kernel_backend();
    }
  } cleanup;

  ::unsetenv("APDS_KERNEL");
  clear_global_kernel_backend();
  EXPECT_EQ(global_kernel_backend(), best_supported_backend());  // probe

  ::setenv("APDS_KERNEL", "scalar", 1);
  clear_global_kernel_backend();
  EXPECT_EQ(global_kernel_backend(), KernelBackend::kScalar);  // env

  set_global_kernel_backend(best_supported_backend());
  EXPECT_EQ(global_kernel_backend(), best_supported_backend());  // setter

  ::setenv("APDS_KERNEL", "bogus", 1);
  clear_global_kernel_backend();
  EXPECT_EQ(global_kernel_backend(), best_supported_backend());  // warn+probe
}

TEST(KernelDispatch, ForcingUnsupportedBackendClampsInsteadOfFaulting) {
  struct Cleanup {
    ~Cleanup() { clear_global_kernel_backend(); }
  } cleanup;
  // On a machine with the full AVX-512 set this setter is a plain set; on
  // anything weaker it must clamp to the best supported tier — an override
  // must never SIGILL a device.
  set_global_kernel_backend(KernelBackend::kAvx512);
  EXPECT_TRUE(kernel_backend_supported(global_kernel_backend()));
  // Requesting an unsupported table directly returns the scalar table.
  if (!kernel_backend_supported(KernelBackend::kAvx512)) {
    EXPECT_STREQ(kernel_ops(KernelBackend::kAvx512).name, "scalar");
  }
}

TEST(KernelDispatch, TablesAreFullyPopulated) {
  for (const KernelBackend b : supported_backends()) {
    const KernelOps& ops = kernel_ops(b);
    EXPECT_STREQ(ops.name, kernel_backend_name(b));
    EXPECT_NE(ops.moment_prep_f32, nullptr);
    EXPECT_NE(ops.act_tile_f32, nullptr);
    EXPECT_NE(ops.moment_tile_f32, nullptr);
    EXPECT_NE(ops.moment_tile_i8, nullptr);
    EXPECT_NE(ops.act_tile_f64, nullptr);
    EXPECT_NE(ops.moment_tile_f64, nullptr);
    EXPECT_NE(ops.moment_conv_tile_f64, nullptr);
    EXPECT_NE(ops.gemm_tile_f64, nullptr);
    EXPECT_NE(ops.bias_act_f64, nullptr);
  }
}

// ---- raw per-kernel agreement against the scalar table ---------------------

TEST(KernelAgreement, ElementwiseKernelsMatchScalar) {
  // The moment prep is elementwise — no accumulation-order freedom. sm is
  // a single multiply, so every tier agrees bit for bit; vi = (mu^2+var)p
  // - mu^2 p^2 leaves FMA contraction room, so the wider tiers may differ
  // by an ulp.
  Rng rng(43);
  const std::size_t n = 331;  // odd: exercises the vector remainder
  const MatrixF mu = random_matrix_f32(1, n, rng);
  MatrixF var = random_matrix_f32(1, n, rng);
  for (float& v : var.flat()) v = std::fabs(v);
  const float p = 0.9f;
  MatrixF ref_sm(1, n), ref_vi(1, n);
  const KernelOps& scalar = kernel_ops(KernelBackend::kScalar);
  scalar.moment_prep_f32(mu.data(), var.data(), ref_sm.data(), ref_vi.data(),
                         n, p, p * p);
  for (const KernelBackend back : supported_backends()) {
    MatrixF sm(1, n), vi(1, n);
    kernel_ops(back).moment_prep_f32(mu.data(), var.data(), sm.data(),
                                     vi.data(), n, p, p * p);
    EXPECT_EQ(max_scaled_diff(ref_sm, sm), 0.0f) << kernel_backend_name(back);
    EXPECT_LE(max_scaled_diff(ref_vi, vi), 1e-6f) << kernel_backend_name(back);
  }
}

TEST(KernelAgreement, ActivationTileMatchesScalar) {
  Rng rng(44);
  const auto f = PiecewiseLinear::fit_tanh(7);
  const PwlView view = f.view();
  const std::size_t n = kKernelMomentTile;
  MatrixF mean = random_matrix_f32(1, n, rng);
  MatrixF var = random_matrix_f32(1, n, rng);
  for (float& v : var.flat()) v = std::fabs(v) + 1e-3f;
  // A few saturated lanes (|z| huge) — the regime the denormal clamp covers.
  mean.flat()[3] = 40.0f;
  mean.flat()[7] = -55.0f;
  var.flat()[3] = 1e-4f;
  MatrixF ref_m = mean, ref_v = var;
  std::vector<unsigned char> det(n, 0);
  const bool ref_det = kernel_ops(KernelBackend::kScalar)
                           .act_tile_f32(view, ref_m.data(),
                                         ref_v.data(), n, kDeterministicVarF,
                                         det.data());
  EXPECT_FALSE(ref_det);  // all variances are safely above the threshold
  for (const KernelBackend back : supported_backends()) {
    MatrixF m = mean, v = var;
    std::vector<unsigned char> d(n, 0);
    const bool has_det = kernel_ops(back).act_tile_f32(
        view, m.data(), v.data(), n, kDeterministicVarF, d.data());
    EXPECT_EQ(has_det, ref_det) << kernel_backend_name(back);
    EXPECT_LE(max_scaled_diff(ref_m, m), 1e-4f) << kernel_backend_name(back);
    EXPECT_LE(max_scaled_diff(ref_v, v), 1e-4f) << kernel_backend_name(back);
    for (const float vv : v.flat()) EXPECT_GE(vv, 0.0f);
  }
}

TEST(KernelAgreement, ActivationTileFlagsDeterministicLanes) {
  const auto f = PiecewiseLinear::fit_tanh(7);
  const PwlView view = f.view();
  for (const KernelBackend back : supported_backends()) {
    // One mixed tile: lane 1 deterministic, the rest stochastic.
    float m[4] = {0.3f, -1.2f, 0.8f, 2.0f};
    float v[4] = {0.5f, 0.0f, 0.25f, 1.0f};
    const float m_in1 = m[1], v_in1 = v[1];
    unsigned char det[4] = {9, 9, 9, 9};
    EXPECT_TRUE(kernel_ops(back).act_tile_f32(view, m, v, 4,
                                              kDeterministicVarF, det))
        << kernel_backend_name(back);
    EXPECT_EQ(det[1], 1);
    // Deterministic lanes are left untouched for the caller's f64 fixup.
    EXPECT_EQ(m[1], m_in1);
    EXPECT_EQ(v[1], v_in1);
    EXPECT_EQ(det[0], 0);
    EXPECT_EQ(det[2], 0);
    EXPECT_EQ(det[3], 0);

    // All-deterministic tile: early exit must still mark every lane.
    float m2[3] = {0.1f, -0.5f, 1.0f};
    float v2[3] = {0.0f, 0.0f, 0.0f};
    unsigned char det2[3] = {0, 0, 0};
    EXPECT_TRUE(kernel_ops(back).act_tile_f32(view, m2, v2, 3,
                                              kDeterministicVarF, det2));
    for (const unsigned char d : det2) EXPECT_EQ(d, 1);
  }
}

// The activation tiles are lane-major with a per-lane saturation rule: a
// lane's bits must not depend on the tile around it. Each lane evaluated
// alone (the single-lane instance) must equal the same lane inside tiles
// of n = 1, L - 1, L + 1, 2L + 3, 4L + 3 and 128 lanes (L = lanes per
// native vector of the tier), built from mixed neighbours: lanes whose
// boundaries all saturate, lanes where some do, unsaturated lanes,
// near-deterministic lanes, +-0 means and NaN/+-Inf lanes. A skip decided
// per vector instead of per lane breaks this (the lane alone takes the
// limit, the same lane beside an unsaturated one the computed value).
template <typename T, typename Tile>
void expect_act_lanes_position_invariant(Tile tile, std::size_t lanes,
                                         T det_threshold, const char* tier) {
  const T inf = std::numeric_limits<T>::infinity();
  const T nan = std::numeric_limits<T>::quiet_NaN();
  const std::vector<std::pair<T, T>> kinds = {
      {T(30), T(0.01)},   {T(-40), T(1)},     {T(3), T(0.04)},
      {T(-2.2), T(0.01)}, {T(0.4), T(0.6)},   {T(-0.9), T(2)},
      {T(0.2), T(0)},     {T(1.5), det_threshold / T(4)},
      {T(0), T(0.3)},     {-T(0), T(0.3)},    {nan, T(1)},
      {inf, T(1)},        {-inf, T(1)},       {T(0.5), inf},
      {T(7), T(0.25)},    {T(-5), T(1e-4)},   {T(2.5e3), T(1e6)}};
  const auto same = [](T a, T b) {
    return (std::isnan(a) && std::isnan(b)) ||
           std::memcmp(&a, &b, sizeof(T)) == 0;
  };
  for (const Activation act :
       {Activation::kRelu, Activation::kTanh, Activation::kSigmoid}) {
    const PiecewiseLinear f = PiecewiseLinear::for_activation(act, 7);
    const PwlView view = f.view();
    // Each kind alone, through the single-lane instance.
    std::vector<T> alone_m, alone_v;
    std::vector<bool> alone_det;
    for (const auto& [mu, var] : kinds) {
      T m = mu, v = var;
      unsigned char d = 0;
      alone_det.push_back(tile(view, &m, &v, 1, det_threshold, &d) && d);
      alone_m.push_back(m);
      alone_v.push_back(v);
    }
    for (const std::size_t n :
         {std::size_t{1}, lanes - 1, lanes + 1, 2 * lanes + 3,
          4 * lanes + 3, kKernelMomentTile}) {
      if (n == 0) continue;
      for (std::size_t shift = 0; shift < kinds.size(); shift += 5) {
        std::vector<T> m(n), v(n);
        std::vector<std::size_t> kind(n);
        for (std::size_t i = 0; i < n; ++i) {
          kind[i] = (i * 7 + shift) % kinds.size();
          m[i] = kinds[kind[i]].first;
          v[i] = kinds[kind[i]].second;
        }
        std::vector<unsigned char> d(n, 0);
        const bool any_det =
            tile(view, m.data(), v.data(), n, det_threshold, d.data());
        for (std::size_t i = 0; i < n; ++i) {
          const std::size_t k = kind[i];
          SCOPED_TRACE(::testing::Message()
                       << tier << " " << activation_name(act) << " n=" << n
                       << " lane " << i << " mu=" << kinds[k].first
                       << " var=" << kinds[k].second);
          EXPECT_EQ(any_det && d[i], alone_det[k]);
          EXPECT_TRUE(same(m[i], alone_m[k])) << m[i] << " vs " << alone_m[k];
          EXPECT_TRUE(same(v[i], alone_v[k])) << v[i] << " vs " << alone_v[k];
        }
      }
    }
  }
}

TEST(KernelAgreement, ActTileLaneIsPositionInvariant) {
  for (const KernelBackend back : supported_backends()) {
    const std::size_t bytes = back == KernelBackend::kAvx512 ? 64
                              : back == KernelBackend::kAvx2 ? 32
                                                             : 16;
    const KernelOps& ops = kernel_ops(back);
    expect_act_lanes_position_invariant<double>(
        ops.act_tile_f64, bytes / sizeof(double), kDeterministicVar,
        kernel_backend_name(back));
    expect_act_lanes_position_invariant<float>(
        ops.act_tile_f32, bytes / sizeof(float), kDeterministicVarF,
        kernel_backend_name(back));
  }
}

// The f64 activation tile replaces libm erfc/exp with a Cody rational and
// a polynomial exp, on every tier including scalar, so its oracle is the
// libm single-value activation_moments. Grid: mu in [-8, 8] x var in
// [1e-12, 1e4] (log-spaced), fed through moment_activation_batch in calls
// of n = 1, 127, 128 and 300 lanes (one lane, a partial tile, a full tile,
// several tiles). Bound: 1e-12 scaled by max(1, mu^2 + var), as
// F64PropagateMatchesScalarBackend uses. Pool widths 1 and 4 must agree
// bit for bit.
TEST(KernelAgreement, ActTileF64MatchesLibmReference) {
  struct Cleanup {
    ~Cleanup() {
      clear_global_kernel_backend();
      set_global_threads(0);
    }
  } cleanup;
  std::vector<double> grid_mu, grid_var;
  for (int a = 0; a <= 32; ++a)
    for (int b = 0; b <= 16; ++b) {
      grid_mu.push_back(-8.0 + 0.5 * a);
      grid_var.push_back(std::pow(10.0, -12.0 + b));
    }
  const std::size_t total = grid_mu.size();
  for (const Activation act :
       {Activation::kRelu, Activation::kTanh, Activation::kSigmoid}) {
    SCOPED_TRACE(activation_name(act));
    const PiecewiseLinear f = PiecewiseLinear::for_activation(act, 7);
    for (const KernelBackend back : supported_backends()) {
      SCOPED_TRACE(kernel_backend_name(back));
      set_global_kernel_backend(back);
      for (const std::size_t n : {std::size_t{1}, std::size_t{127},
                                  std::size_t{128}, std::size_t{300}}) {
        SCOPED_TRACE(::testing::Message() << "n=" << n);
        double worst = 0.0;
        for (std::size_t t = 0; t < total; t += n) {
          const std::size_t len = std::min(n, total - t);
          std::vector<double> m1(grid_mu.begin() + t,
                                 grid_mu.begin() + t + len);
          std::vector<double> v1(grid_var.begin() + t,
                                 grid_var.begin() + t + len);
          std::vector<double> m4 = m1, v4 = v1;
          set_global_threads(1);
          moment_activation_batch(f, m1.data(), v1.data(), len);
          set_global_threads(4);
          moment_activation_batch(f, m4.data(), v4.data(), len);
          ASSERT_EQ(std::memcmp(m1.data(), m4.data(), len * sizeof(double)),
                    0);
          ASSERT_EQ(std::memcmp(v1.data(), v4.data(), len * sizeof(double)),
                    0);
          for (std::size_t i = 0; i < len; ++i) {
            const double mu = grid_mu[t + i];
            const double var = grid_var[t + i];
            const ScalarMoments want = activation_moments(f, mu, var);
            const double scale = std::max(1.0, mu * mu + var);
            worst = std::max(worst, std::fabs(m1[i] - want.mean) / scale);
            worst = std::max(worst, std::fabs(v1[i] - want.var) / scale);
            EXPECT_GE(v1[i], 0.0) << "mu=" << mu << " var=" << var;
          }
        }
        EXPECT_LE(worst, 1e-12);
      }
    }
  }
}

// The f64 moment tile squares W in-kernel and has no zero-input skip. On
// the scalar tier, moment_linear must equal the plain f64 GEMMs against W
// and a stored square(W) plus bias and clamp (moment_reference.h) byte for
// byte: k not a multiple of the 8-way jam or the 64-wide k block, odd n (a
// narrow last column tile), exact +0.0 and -0.0 inputs (dropped lanes),
// batch 1 and batches spanning several row blocks, pool widths 1 and 4.
// Every tier is bit-identical across pool widths and within 1e-12 of the
// scalar tier.
TEST(KernelAgreement, MomentTileF64MatchesStoredSquareReference) {
  struct Cleanup {
    ~Cleanup() {
      clear_global_kernel_backend();
      set_global_threads(0);
    }
  } cleanup;
  Rng rng(47);
  struct Shape {
    std::size_t m, k, n;
  };
  for (const Shape shape : {Shape{1, 130, 1025}, Shape{3, 257, 513},
                            Shape{9, 100, 33}, Shape{64, 200, 65}}) {
    SCOPED_TRACE(::testing::Message()
                 << shape.m << "x" << shape.k << "x" << shape.n);
    DenseLayer layer;
    layer.weight = Matrix(shape.k, shape.n);
    layer.bias = Matrix(1, shape.n);
    layer.keep_prob = 0.8;
    for (double& v : layer.weight.flat()) v = rng.normal();
    for (double& v : layer.bias.flat()) v = rng.normal();
    MeanVar input(shape.m, shape.k);
    for (double& v : input.mean.flat()) v = rng.normal();
    for (double& v : input.var.flat()) v = std::fabs(rng.normal());
    for (std::size_t i = 0; i < input.mean.size(); i += 3) {
      input.mean.data()[i] = (i % 2 == 0) ? 0.0 : -0.0;
      input.var.data()[i] = 0.0;
    }
    const MeanVar want = testing::reference_moment_linear(input, layer);
    for (const KernelBackend back : supported_backends()) {
      set_global_kernel_backend(back);
      set_global_threads(1);
      const MeanVar serial = moment_linear(input, layer);
      set_global_threads(4);
      const MeanVar parallel = moment_linear(input, layer);
      EXPECT_TRUE(bytes_equal(serial.mean, parallel.mean))
          << kernel_backend_name(back);
      EXPECT_TRUE(bytes_equal(serial.var, parallel.var))
          << kernel_backend_name(back);
      if (back == KernelBackend::kScalar) {
        EXPECT_TRUE(bytes_equal(serial.mean, want.mean));
        EXPECT_TRUE(bytes_equal(serial.var, want.var));
      }
      EXPECT_LE(max_scaled_diff(want.mean, serial.mean), 1e-12)
          << kernel_backend_name(back);
      EXPECT_LE(max_scaled_diff(want.var, serial.var), 1e-12)
          << kernel_backend_name(back);
    }
  }
}

// A row computed alone runs the moment tile's one-row (GEMV) block; the
// same row inside a batch of 7 or 64 runs the multi-row block or one of
// its row tails (at SSE2, the L1 form moment_jam). Per element the
// arithmetic is the same in every block, so
// at every tier the bytes must agree, for f64 moment_linear and for the
// fused f32 layer (tile plus activation). Output widths straddle each
// precision's native vector of L lanes (1, L-1, L+1, 2L+3) and the
// 128-wide column tile (122, 250), and each width's layer is the first
// columns of one 250-wide layer, so a column that is a vector lane in one
// width and a single column in another must keep its bits too. kdim is 1,
// 7 and 130; the means hold exact +0.0 and -0.0 and some variances are 0.
// kdim 0 must still write every element: the bias and a zero variance,
// the bytes a one-term layer with zero weights and zero inputs gives.
TEST(KernelAgreement, MomentTileRowIsBatchInvariant) {
  struct Cleanup {
    ~Cleanup() { clear_global_kernel_backend(); }
  } cleanup;
  Rng rng(49);
  const PiecewiseLinear act = PiecewiseLinear::tanh_default();
  constexpr std::size_t kBatch = 64;
  constexpr std::size_t kWide = 250;
  // Rows [r0, r0 + rows) through the layer's first n output columns.
  struct Out {
    std::vector<double> mean, var;
  };
  const auto run_f64 = [](const MeanVar& input, const DenseLayer& wide,
                          std::size_t r0, std::size_t rows, std::size_t n) {
    const std::size_t kdim = input.dim();
    DenseLayer layer;
    layer.weight = Matrix(kdim, n);
    layer.bias = Matrix(1, n);
    layer.keep_prob = wide.keep_prob;
    for (std::size_t k = 0; k < kdim; ++k)
      std::copy_n(wide.weight.data() + k * kWide, n,
                  layer.weight.data() + k * n);
    std::copy_n(wide.bias.data(), n, layer.bias.data());
    MeanVar part(rows, kdim);
    std::copy_n(input.mean.data() + r0 * kdim, rows * kdim,
                part.mean.data());
    std::copy_n(input.var.data() + r0 * kdim, rows * kdim, part.var.data());
    const MeanVar out = moment_linear(part, layer);
    return Out{std::vector<double>(out.mean.data(),
                                   out.mean.data() + rows * n),
               std::vector<double>(out.var.data(), out.var.data() + rows * n)};
  };
  const auto run_f32 = [&act](const MeanVar& input, const DenseLayer& wide,
                              std::size_t r0, std::size_t rows,
                              std::size_t n) {
    const std::size_t kdim = input.dim();
    std::vector<float> weight(kdim * n), bias(n), mean(rows * n),
        var(rows * n), sm(rows * kdim), vi(rows * kdim);
    for (std::size_t k = 0; k < kdim; ++k)
      for (std::size_t j = 0; j < n; ++j)
        weight[k * n + j] = static_cast<float>(wide.weight(k, j));
    for (std::size_t j = 0; j < n; ++j)
      bias[j] = static_cast<float>(wide.bias(0, j));
    const MatrixF in_mean = to_f32(input.mean);
    const MatrixF in_var = to_f32(input.var);
    FusedScratchView scratch;
    scratch.sm = sm.data();
    scratch.vi = vi.data();
    moment_linear_act_into(in_mean.data() + r0 * kdim,
                           in_var.data() + r0 * kdim, rows, kdim,
                           weight.data(), bias.data(), n, wide.keep_prob, act,
                           scratch, mean.data(), var.data());
    return Out{std::vector<double>(mean.begin(), mean.end()),
               std::vector<double>(var.begin(), var.end())};
  };
  // Row r of `got` (n wide) against row r of `want` (want_n wide).
  const auto row_equal = [](const Out& got, std::size_t r, const Out& want,
                            std::size_t wr, std::size_t n,
                            std::size_t want_n) {
    return std::equal(got.mean.begin() + r * n, got.mean.begin() + r * n + n,
                      want.mean.begin() + wr * want_n,
                      [](double a, double b) {
                        return std::memcmp(&a, &b, sizeof a) == 0;
                      }) &&
           std::equal(got.var.begin() + r * n, got.var.begin() + r * n + n,
                      want.var.begin() + wr * want_n, [](double a, double b) {
                        return std::memcmp(&a, &b, sizeof a) == 0;
                      });
  };
  for (const KernelBackend back : supported_backends()) {
    set_global_kernel_backend(back);
    const std::size_t vec_bytes = back == KernelBackend::kAvx512 ? 64
                                  : back == KernelBackend::kAvx2 ? 32
                                                                 : 16;
    for (const std::size_t elem : {sizeof(double), sizeof(float)}) {
      const auto run = elem == sizeof(double) ? std::function(run_f64)
                                              : std::function(run_f32);
      const std::size_t lanes = vec_bytes / elem;
      for (const std::size_t kdim : {0, 1, 7, 130}) {
        DenseLayer wide;
        wide.weight = Matrix(kdim, kWide);
        wide.bias = Matrix(1, kWide);
        wide.keep_prob = 0.9;
        for (double& v : wide.weight.flat()) v = rng.normal();
        for (double& v : wide.bias.flat()) v = rng.normal();
        MeanVar input(kBatch, kdim);
        for (double& v : input.mean.flat()) v = rng.normal();
        for (double& v : input.var.flat()) v = std::fabs(rng.normal());
        for (std::size_t i = 0; i < input.mean.size(); i += 5) {
          input.mean.data()[i] = (i % 2 == 0) ? 0.0 : -0.0;
          input.var.data()[i] = 0.0;
        }
        const Out all_wide = run(input, wide, 0, kBatch, kWide);
        if (kdim == 0) {
          DenseLayer zero_w;
          zero_w.weight = Matrix(1, kWide);
          zero_w.bias = wide.bias;
          zero_w.keep_prob = wide.keep_prob;
          const Out want = run(MeanVar(kBatch, 1), zero_w, 0, kBatch, kWide);
          for (std::size_t r = 0; r < kBatch; ++r)
            EXPECT_TRUE(row_equal(all_wide, r, want, r, kWide, kWide))
                << kernel_backend_name(back) << " f" << elem * 8 << " row "
                << r << " at kdim 0";
        }
        for (const std::size_t n :
             {std::size_t{1}, lanes - 1, lanes + 1, 2 * lanes + 3,
              std::size_t{122}, kWide}) {
          SCOPED_TRACE(::testing::Message()
                       << kernel_backend_name(back) << " f" << elem * 8
                       << " n=" << n << " kdim=" << kdim);
          const Out all = run(input, wide, 0, kBatch, n);
          const Out seven = run(input, wide, 0, 7, n);
          for (std::size_t r = 0; r < kBatch; ++r) {
            const Out alone = run(input, wide, r, 1, n);
            EXPECT_TRUE(row_equal(alone, 0, all, r, n, n))
                << "row " << r << " of 64";
            if (r < 7) {
              EXPECT_TRUE(row_equal(alone, 0, seven, r, n, n))
                  << "row " << r << " of 7";
            }
            EXPECT_TRUE(row_equal(all, r, all_wide, r, n, kWide))
                << "row " << r << " against the 250-wide layer";
          }
        }
      }
    }
  }
}

// The i8 tile runs a one-row call through its L1 jam and any other row
// count through pmaddwd register blocks over (k, k + 1) term pairs, with
// column blocks of 32, 16 and 8 i8 columns and single columns after them.
// Its sums are exact integers, so at every tier a row alone must give the
// bytes of the same row inside a batch of 7 and of 64. The 250-wide layer
// puts every column block width into its 122-wide second tile; kdim 1, 7
// and 131 give an odd last term pair, and 131 spans three k-blocks.
TEST(KernelAgreement, MomentTileI8RowIsBatchInvariant) {
  struct Cleanup {
    ~Cleanup() { clear_global_kernel_backend(); }
  } cleanup;
  Rng rng(50);
  const PiecewiseLinear act = PiecewiseLinear::tanh_default();
  constexpr std::size_t kBatch = 64;
  constexpr std::size_t kWide = 250;
  for (const KernelBackend back : supported_backends()) {
    set_global_kernel_backend(back);
    for (const std::size_t kdim : {1, 7, 131}) {
      SCOPED_TRACE(::testing::Message()
                   << kernel_backend_name(back) << " kdim=" << kdim);
      DenseLayer dense;
      dense.weight = Matrix(kdim, kWide);
      dense.bias = Matrix(1, kWide);
      dense.keep_prob = 0.9;
      for (double& v : dense.weight.flat()) v = rng.normal();
      for (double& v : dense.bias.flat()) v = rng.normal();
      const QuantizedDenseLayer layer = quantize_dense_layer(dense);
      MatrixF mean(kBatch, kdim), var(kBatch, kdim);
      for (float& v : mean.flat()) v = static_cast<float>(rng.normal());
      for (float& v : var.flat())
        v = static_cast<float>(std::fabs(rng.normal()));
      const auto run = [&](std::size_t r0, std::size_t rows) {
        std::vector<float> sm(rows * kdim), vi(rows * kdim), sm_scale(rows),
            vi_scale(rows), out_mean(rows * kWide), out_var(rows * kWide);
        std::vector<std::int8_t> q_sm(rows * kdim), q_vi(rows * kdim);
        FusedScratchView scratch;
        scratch.sm = sm.data();
        scratch.vi = vi.data();
        scratch.q_sm = q_sm.data();
        scratch.q_vi = q_vi.data();
        scratch.sm_scale = sm_scale.data();
        scratch.vi_scale = vi_scale.data();
        moment_linear_act_into(mean.data() + r0 * kdim,
                               var.data() + r0 * kdim, rows, kdim, layer,
                               dense.keep_prob, act, scratch,
                               out_mean.data(), out_var.data());
        out_mean.insert(out_mean.end(), out_var.begin(), out_var.end());
        return out_mean;  // rows x kWide means, then rows x kWide variances
      };
      const std::vector<float> all = run(0, kBatch);
      const std::vector<float> seven = run(0, 7);
      for (std::size_t r = 0; r < kBatch; ++r) {
        const std::vector<float> alone = run(r, 1);
        for (const auto& [batch, rows] :
             {std::pair{&all, kBatch}, std::pair{&seven, std::size_t{7}}}) {
          if (r >= rows) continue;
          EXPECT_EQ(std::memcmp(alone.data(), batch->data() + r * kWide,
                                sizeof(float) * kWide),
                    0)
              << "mean, row " << r << " of " << rows;
          EXPECT_EQ(std::memcmp(alone.data() + kWide,
                                batch->data() + (rows + r) * kWide,
                                sizeof(float) * kWide),
                    0)
              << "variance, row " << r << " of " << rows;
        }
      }
    }
  }
}

// The dispatched conv tile through moment_conv1d_linear against the
// strided scalar loop it replaced (tests/moment_reference.h), at every
// supported tier: within 1e-12 scaled, and bit-identical across pool
// widths 1 and 4. Shapes cover kernel 1 (which must reduce to the dense
// dropout-linear formula), stride > kernel, a single input channel, output
// channel counts below, at and past the register block and the 128-wide
// tile (1, 7, 32, 130), batch 3, input variance everywhere and exact +0.0
// and -0.0 means. The raw tile called window by window must give the
// bits of moment_conv1d_linear too.
TEST(KernelAgreement, MomentConvTileF64MatchesReference) {
  struct Cleanup {
    ~Cleanup() {
      clear_global_kernel_backend();
      set_global_threads(0);
    }
  } cleanup;
  Rng rng(53);
  struct Shape {
    std::size_t kernel, stride, in_ch, out_ch, in_len;
  };
  for (const Shape shape :
       {Shape{1, 1, 5, 7, 6}, Shape{3, 5, 4, 32, 23}, Shape{4, 2, 1, 130, 40},
        Shape{5, 2, 6, 1, 30}, Shape{5, 1, 32, 32, 17}}) {
    SCOPED_TRACE(::testing::Message()
                 << "kernel " << shape.kernel << " stride " << shape.stride
                 << " in " << shape.in_ch << " out " << shape.out_ch);
    const Conv1dLayer layer =
        make_conv1d(shape.kernel, shape.in_ch, shape.out_ch, shape.stride,
                    Activation::kRelu, 0.8, rng);
    MeanVar input(3, shape.in_len * shape.in_ch);
    for (double& v : input.mean.flat()) v = rng.normal();
    for (double& v : input.var.flat()) v = 0.01 + std::fabs(rng.normal());
    for (std::size_t i = 0; i < input.mean.size(); i += 5)
      input.mean.data()[i] = (i % 2 == 0) ? 0.0 : -0.0;
    const MeanVar want =
        testing::reference_moment_conv1d_linear(layer, input, shape.in_len);
    for (const KernelBackend back : supported_backends()) {
      set_global_kernel_backend(back);
      set_global_threads(1);
      const MeanVar serial = moment_conv1d_linear(layer, input, shape.in_len);
      set_global_threads(4);
      const MeanVar parallel =
          moment_conv1d_linear(layer, input, shape.in_len);
      EXPECT_TRUE(bytes_equal(serial.mean, parallel.mean))
          << kernel_backend_name(back);
      EXPECT_TRUE(bytes_equal(serial.var, parallel.var))
          << kernel_backend_name(back);
      EXPECT_LE(max_scaled_diff(want.mean, serial.mean), 1e-12)
          << kernel_backend_name(back);
      EXPECT_LE(max_scaled_diff(want.var, serial.var), 1e-12)
          << kernel_backend_name(back);
      // The tile called one window at a time (no multi-window register
      // block) gives the same bits as moment_conv1d_linear's window runs.
      MeanVar single(3, serial.dim());
      const std::size_t out_t = layer.out_len(shape.in_len);
      for (std::size_t b = 0; b < 3; ++b)
        for (std::size_t t = 0; t < out_t; ++t)
          kernel_ops(back).moment_conv_tile_f64(
              input.mean.row(b).data(), input.var.row(b).data(),
              layer.weight.data(), layer.bias.data(), shape.kernel,
              shape.in_ch, shape.stride, shape.out_ch, 0.8, t, t + 1,
              single.mean.row(b).data(), single.var.row(b).data());
      EXPECT_TRUE(bytes_equal(serial.mean, single.mean))
          << kernel_backend_name(back);
      EXPECT_TRUE(bytes_equal(serial.var, single.var))
          << kernel_backend_name(back);
      if (shape.kernel == 1 && shape.stride == 1) {
        // Every window is one time step: the dense formula over the rows
        // [batch * in_len, in_channels].
        DenseLayer dense;
        dense.weight = layer.weight;
        dense.bias = layer.bias;
        dense.keep_prob = layer.channel_keep_prob;
        MeanVar rows(3 * shape.in_len, shape.in_ch);
        std::copy(input.mean.flat().begin(), input.mean.flat().end(),
                  rows.mean.flat().begin());
        std::copy(input.var.flat().begin(), input.var.flat().end(),
                  rows.var.flat().begin());
        const MeanVar dense_out = testing::reference_moment_linear(rows, dense);
        Matrix conv_mean(3 * shape.in_len, shape.out_ch);
        Matrix conv_var(3 * shape.in_len, shape.out_ch);
        std::copy(serial.mean.flat().begin(), serial.mean.flat().end(),
                  conv_mean.flat().begin());
        std::copy(serial.var.flat().begin(), serial.var.flat().end(),
                  conv_var.flat().begin());
        EXPECT_LE(max_scaled_diff(dense_out.mean, conv_mean), 1e-12);
        EXPECT_LE(max_scaled_diff(dense_out.var, conv_var), 1e-12);
      }
    }
  }
}

// ---- fused-path agreement through the public API ---------------------------

// Inner dims 13 and 90 are not multiples of the kernels' 8-way kk jam, so
// the kk remainder loops (including the f32 tile's inline W squaring) run
// in hidden layers and, at i8, in the f32 moment head.
Mlp small_net(Rng& rng) {
  MlpSpec spec;
  spec.dims = {24, 13, 90, 10};
  spec.hidden_act = Activation::kTanh;
  spec.hidden_keep_prob = 0.9;
  return Mlp::make(spec, rng);
}

// The f64 GEMM tile of the batched MCDrop pass against the default-flags
// gemm_buffers(double) it must reproduce: on ragged shapes (m 1, 7, 50 and
// 65 around every tier's row block; n below, between and past the register
// block widths; k below the 8-way jam and odd), with exact +0.0 and -0.0
// inputs (dropped units, which gemm_buffers skips and the tile adds). The
// scalar tier matches byte for byte, avx2/avx512 within 1e-12 scaled; and
// every tier gives the same bits when the output is split into uneven row
// and column ranges.
TEST(KernelAgreement, GemmTileF64MatchesReferenceGemm) {
  Rng rng(59);
  for (const std::size_t m : {1, 7, 50, 65}) {
    for (const std::size_t n : {1, 13, 37, 100}) {
      for (const std::size_t k : {1, 3, 7, 129}) {
        SCOPED_TRACE(::testing::Message() << m << "x" << k << "x" << n);
        Matrix a(m, k), b(k, n);
        for (double& v : a.flat()) v = rng.normal();
        for (double& v : b.flat()) v = rng.normal();
        for (std::size_t i = 0; i < a.size(); i += 3)
          a.data()[i] = (i % 2 == 0) ? 0.0 : -0.0;
        Matrix want(m, n);
        gemm_buffers(a.data(), b.data(), want.data(), m, k, n,
                     /*accumulate=*/false);
        for (const KernelBackend back : supported_backends()) {
          const KernelOps& ops = kernel_ops(back);
          Matrix whole(m, n, 7.0);
          ops.gemm_tile_f64(a.data(), b.data(), whole.data(), k, n, 0, m, 0,
                            n);
          if (back == KernelBackend::kScalar) {
            EXPECT_TRUE(bytes_equal(whole, want));
          }
          EXPECT_LE(max_scaled_diff(want, whole), 1e-12)
              << kernel_backend_name(back);
          Matrix split(m, n, 7.0);
          const std::size_t im = m / 3, jm = n / 2 + 1;
          for (const auto& [i0, i1] : {std::pair{std::size_t{0}, im},
                                       std::pair{im, m}})
            for (const auto& [j0, j1] : {std::pair{std::size_t{0}, jm},
                                         std::pair{jm, n}})
              if (i0 < i1 && j0 < j1)
                ops.gemm_tile_f64(a.data(), b.data(), split.data(), k, n, i0,
                                  i1, j0, j1);
          EXPECT_TRUE(bytes_equal(whole, split)) << kernel_backend_name(back);
        }
      }
    }
  }
}

// ---- the batched MCDrop epilogue --------------------------------------------

const std::pair<KernelAct, Activation> kEpilogueActs[] = {
    {KernelAct::kIdentity, Activation::kIdentity},
    {KernelAct::kRelu, Activation::kRelu},
    {KernelAct::kTanh, Activation::kTanh},
    {KernelAct::kSigmoid, Activation::kSigmoid}};

bool same_bits(double a, double b) {
  return (std::isnan(a) && std::isnan(b)) ||
         std::memcmp(&a, &b, sizeof a) == 0;
}

/// (x, bias) lanes for bias_act_f64: NaN, +-Inf, +-0, subnormals and
/// DBL_MIN, tanh's rational/exp switch at |x| = 0.625 and its neighbours,
/// |x| >= 20 (tanh rounds to +-1 there), sigmoid's cut at -708 and the
/// subnormal range of libm's sigmoid beyond it, ordinary values, and
/// bias-carrying lanes whose sum lands on the same points.
std::vector<std::pair<double, double>> epilogue_lanes() {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double sub = std::numeric_limits<double>::denorm_min();
  const double tiny = std::numeric_limits<double>::min();
  return {{nan, 0.0},
          {inf, 0.0},
          {-inf, 0.0},
          {0.0, 0.0},
          {-0.0, 0.0},
          {-0.0, -0.0},
          {sub, 0.0},
          {-sub, 0.0},
          {-3e-310, 0.0},
          {tiny, 0.0},
          {1e-9, 0.0},
          {0.625, 0.0},
          {std::nextafter(0.625, 0.0), 0.0},
          {std::nextafter(0.625, 1.0), 0.0},
          {-0.625, 0.0},
          {-std::nextafter(0.625, 0.0), 0.0},
          {0.3, 0.0},
          {-0.7, 0.0},
          {1.0, 0.0},
          {-2.5, 0.0},
          {5.0, 0.0},
          {19.0, 0.0},
          {-20.0, 0.0},
          {20.5, 0.0},
          {-37.0, 0.0},
          {40.0, 0.0},
          {708.0, 0.0},
          {-708.0, 0.0},
          {-708.5, 0.0},
          {-740.0, 0.0},
          {-1e300, 0.0},
          {1e300, 0.0},
          {0.5, 0.125},
          {1.25, -1.0},
          {-3.0, 2.375},
          {0.0, nan},
          {1.0, -inf}};
}

// The epilogue's contract at every tier: the scalar tier is bytes-equal to
// activate(x + b) (libm), every tier is bytes-equal to it for identity and
// relu and within 1e-15 scaled by max(1, |ref|) for tanh and sigmoid, NaN
// propagates (relu maps it to 0, as activate does), +-Inf go to +-1
// (tanh) or 1 and 0 (sigmoid), tanh keeps +-0 and returns a subnormal
// unchanged, and |x| >= 20 gives tanh +-1 exactly. Rows [1, 3) of a
// 4-row panel starting at column 2 are written; the rest stays untouched.
TEST(KernelAgreement, BiasActF64FollowsContractAtEveryTier) {
  const auto lanes = epilogue_lanes();
  const std::size_t cols = lanes.size();
  const std::size_t n = cols + 3;
  for (const KernelBackend back : supported_backends()) {
    const KernelOps& ops = kernel_ops(back);
    for (const auto& [kact, act] : kEpilogueActs) {
      SCOPED_TRACE(::testing::Message() << kernel_backend_name(back) << " "
                                        << activation_name(act));
      std::vector<double> y(4 * n, 7.0), bias(n, 0.0);
      for (std::size_t j = 0; j < cols; ++j) {
        bias[2 + j] = lanes[j].second;
        for (std::size_t i = 1; i < 3; ++i) y[i * n + 2 + j] = lanes[j].first;
      }
      ops.bias_act_f64(y.data(), bias.data(), n, 1, 3, 2, 2 + cols, kact);
      for (std::size_t i = 0; i < 4; ++i)
        for (std::size_t c = 0; c < n; ++c) {
          const bool inside = i >= 1 && i < 3 && c >= 2 && c < 2 + cols;
          if (!inside) {
            EXPECT_EQ(y[i * n + c], 7.0) << "row " << i << " col " << c;
            continue;
          }
          const auto [x, b] = lanes[c - 2];
          const double got = y[i * n + c];
          const double ref = activate(act, x + b);
          SCOPED_TRACE(::testing::Message() << "x=" << x << " b=" << b);
          if (back == KernelBackend::kScalar || kact == KernelAct::kIdentity ||
              kact == KernelAct::kRelu) {
            EXPECT_TRUE(same_bits(got, ref)) << got << " vs " << ref;
          } else if (std::isnan(ref)) {
            EXPECT_TRUE(std::isnan(got)) << got;
          } else {
            EXPECT_LE(std::fabs(got - ref),
                      1e-15 * std::max(1.0, std::fabs(ref)))
                << got << " vs " << ref;
          }
          const double s = x + b;
          if (kact == KernelAct::kTanh) {
            if (std::fabs(s) >= 20.0 || std::isinf(s)) {
              EXPECT_EQ(got, s > 0 ? 1.0 : -1.0);
            }
            if (std::fabs(s) < std::numeric_limits<double>::min()) {
              EXPECT_TRUE(same_bits(got, s)) << got;
            }
          }
          if (kact == KernelAct::kSigmoid) {
            if (std::isinf(s)) {
              EXPECT_EQ(got, s > 0 ? 1.0 : 0.0);
            }
            if (s == 0.0) {
              EXPECT_EQ(got, 0.5);
            }
          }
        }
    }
  }
}

// A lane's epilogue bits do not depend on the panel around it: each (x, b)
// lane alone (a one-column panel) equals the same lane inside panels of
// n = 1, L - 1, L + 1, 2L + 3 and 128 columns (L = lanes per native vector
// of the tier) over two rows, built from the mixed lanes above and placed
// at an odd column offset.
TEST(KernelAgreement, BiasActF64LaneIsPositionInvariant) {
  const auto lanes = epilogue_lanes();
  for (const KernelBackend back : supported_backends()) {
    const std::size_t per_vec = (back == KernelBackend::kAvx512 ? 64
                                 : back == KernelBackend::kAvx2 ? 32
                                                                : 16) /
                                sizeof(double);
    const KernelOps& ops = kernel_ops(back);
    for (const auto& [kact, act] : kEpilogueActs) {
      std::vector<double> alone;
      for (const auto& [x, b] : lanes) {
        double y = x;
        ops.bias_act_f64(&y, &b, 1, 0, 1, 0, 1, kact);
        alone.push_back(y);
      }
      for (const std::size_t cols :
           {std::size_t{1}, per_vec - 1, per_vec + 1, 2 * per_vec + 3,
            std::size_t{128}}) {
        const std::size_t n = cols + 3;
        for (std::size_t shift = 0; shift < lanes.size(); shift += 5) {
          std::vector<double> y(2 * n, 0.0), bias(n, 0.0);
          std::vector<std::size_t> kind(2 * n);
          for (std::size_t i = 0; i < 2; ++i)
            for (std::size_t j = 0; j < cols; ++j) {
              // Both rows share the bias, so lane j's kind fixes the bias
              // and row 1 repeats row 0's kind.
              const std::size_t k = (j * 7 + shift) % lanes.size();
              kind[i * n + 3 + j] = k;
              y[i * n + 3 + j] = lanes[k].first;
              bias[3 + j] = lanes[k].second;
            }
          ops.bias_act_f64(y.data(), bias.data(), n, 0, 2, 3, 3 + cols, kact);
          for (std::size_t i = 0; i < 2; ++i)
            for (std::size_t j = 0; j < cols; ++j) {
              const std::size_t k = kind[i * n + 3 + j];
              EXPECT_TRUE(same_bits(y[i * n + 3 + j], alone[k]))
                  << kernel_backend_name(back) << " " << activation_name(act)
                  << " cols=" << cols << " row " << i << " col " << j
                  << " x=" << lanes[k].first << " b=" << lanes[k].second
                  << ": " << y[i * n + 3 + j] << " vs " << alone[k];
            }
        }
      }
    }
  }
}

TEST(KernelAgreement, FusedF32PropagateMatchesScalarBackend) {
  struct Cleanup {
    ~Cleanup() { clear_global_kernel_backend(); }
  } cleanup;
  Rng rng(45);
  const Mlp mlp = small_net(rng);
  const ApDeepSense apd(mlp);
  MeanVar input(6, 24);
  for (double& v : input.mean.flat()) v = rng.normal();
  for (double& v : input.var.flat()) v = std::fabs(rng.normal());

  set_global_kernel_backend(KernelBackend::kScalar);
  const MeanVar ref = apd.propagate(input, Precision::kF32);
  for (const KernelBackend back : supported_backends()) {
    set_global_kernel_backend(back);
    const MeanVar got = apd.propagate(input, Precision::kF32);
    EXPECT_LE(max_abs_diff(ref.mean, got.mean), 1e-4)
        << kernel_backend_name(back);
    EXPECT_LE(max_abs_diff(ref.var, got.var), 1e-4)
        << kernel_backend_name(back);
  }
}

// The f64 twin over a depth-8 net per hidden activation: the wider tiers'
// FMA contraction compounds through eight moment tiles and activations,
// yet stays at the 1e-15 level (measured), far inside the bound. Inner
// dims 13, 90 and 57 leave kk remainders; batch 20 spans two row blocks.
TEST(KernelAgreement, F64PropagateMatchesScalarBackend) {
  struct Cleanup {
    ~Cleanup() { clear_global_kernel_backend(); }
  } cleanup;
  Rng rng(48);
  for (const Activation act :
       {Activation::kRelu, Activation::kTanh, Activation::kSigmoid}) {
    SCOPED_TRACE(activation_name(act));
    MlpSpec spec;
    spec.dims = {24, 13, 90, 130, 33, 64, 57, 40, 10};
    spec.hidden_act = act;
    spec.hidden_keep_prob = 0.9;
    const Mlp mlp = Mlp::make(spec, rng);
    const ApDeepSense apd(mlp);
    MeanVar input(20, 24);
    for (double& v : input.mean.flat()) v = rng.normal();
    for (double& v : input.var.flat()) v = std::fabs(rng.normal());

    set_global_kernel_backend(KernelBackend::kScalar);
    const MeanVar ref = apd.propagate(input, Precision::kF64);
    for (const KernelBackend back : supported_backends()) {
      set_global_kernel_backend(back);
      const MeanVar got = apd.propagate(input, Precision::kF64);
      EXPECT_LE(max_scaled_diff(ref.mean, got.mean), 1e-12)
          << kernel_backend_name(back);
      EXPECT_LE(max_scaled_diff(ref.var, got.var), 1e-12)
          << kernel_backend_name(back);
    }
  }
}

TEST(KernelAgreement, FusedI8PropagateMatchesScalarBackend) {
  struct Cleanup {
    ~Cleanup() { clear_global_kernel_backend(); }
  } cleanup;
  Rng rng(46);
  const Mlp mlp = small_net(rng);
  const ApDeepSense apd(mlp);
  MeanVar input(6, 24);
  for (double& v : input.mean.flat()) v = rng.normal();
  for (double& v : input.var.flat()) v = std::fabs(rng.normal());

  set_global_kernel_backend(KernelBackend::kScalar);
  const MeanVar ref = apd.propagate(input, Precision::kI8);
  for (const KernelBackend back : supported_backends()) {
    set_global_kernel_backend(back);
    const MeanVar got = apd.propagate(input, Precision::kI8);
    // The i8 accumulation is exact i32 on every tier; only the f32 dequant
    // epilogue (scale multiplies + bias) may contract differently, so the
    // cross-backend gap is small — but NOT zero like a pure-integer kernel.
    EXPECT_LE(max_abs_diff(ref.mean, got.mean), 1e-3)
        << kernel_backend_name(back);
    EXPECT_LE(max_abs_diff(ref.var, got.var), 1e-3)
        << kernel_backend_name(back);
  }
}

// ---- quantization round trips ----------------------------------------------

TEST(Quantize, PerColumnRoundTripStaysInsideHalfStep) {
  Rng rng(47);
  Matrix w(64, 48);
  for (double& v : w.flat()) v = rng.normal() * 3.0;
  w(0, 5) = 40.0;  // one outlier channel must not hurt the others
  const QuantizedMatrix q = quantize_per_col(w);
  ASSERT_EQ(q.rows, 64u);
  ASSERT_EQ(q.cols, 48u);
  for (std::size_t i = 0; i < q.rows; ++i) {
    for (std::size_t j = 0; j < q.cols; ++j) {
      const std::int8_t qv = q.data[i * q.cols + j];
      EXPECT_GE(qv, -127);  // -128 is never produced (symmetric range)
      const double back =
          static_cast<double>(qv) * static_cast<double>(q.scale[j]);
      EXPECT_LE(std::fabs(back - w(i, j)),
                static_cast<double>(q.scale[j]) * 0.5 + 1e-12)
          << i << "," << j;
    }
  }
}

TEST(Quantize, RowQuantizationPreservesZerosAndHandlesZeroRows) {
  float x[5] = {0.0f, -2.5f, 1.25f, 0.0f, 5.0f};
  std::int8_t q[5];
  float scale = 0.0f;
  quantize_row_i8(x, 5, q, &scale);
  EXPECT_EQ(q[0], 0);  // dropout-zeroed lanes stay exactly zero
  EXPECT_EQ(q[3], 0);
  EXPECT_EQ(q[4], 127);  // the max element pins the scale
  EXPECT_FLOAT_EQ(scale, 5.0f / 127.0f);

  float zeros[3] = {0.0f, 0.0f, 0.0f};
  std::int8_t qz[3] = {1, 1, 1};
  quantize_row_i8(zeros, 3, qz, &scale);
  EXPECT_FLOAT_EQ(scale, 1.0f);
  for (const std::int8_t v : qz) EXPECT_EQ(v, 0);

  // A denormal-only row: 127 / max overflows f32, so the row must come out
  // as zeros with scale 1 — never a cast of +-inf (the zero lane included).
  float tiny[4] = {1e-39f, 5e-40f, -2e-40f, 0.0f};
  std::int8_t qt[4] = {1, 1, 1, 1};
  quantize_row_i8(tiny, 4, qt, &scale);
  EXPECT_FLOAT_EQ(scale, 1.0f);
  for (const std::int8_t v : qt) EXPECT_EQ(v, 0);

  // A NaN lane: the scale turns NaN so every dequantized product is NaN
  // instead of the NaN lane posing as a finite code.
  float with_nan[3] = {1.0f, std::nanf(""), 0.5f};
  std::int8_t qn[3] = {1, 1, 1};
  quantize_row_i8(with_nan, 3, qn, &scale);
  EXPECT_TRUE(std::isnan(scale));
  for (const std::int8_t v : qn) EXPECT_EQ(v, 0);
  EXPECT_TRUE(std::isnan(static_cast<float>(qn[0]) * scale));

  // The per-column weight quantizer follows the same contract.
  Matrix w(3, 3);
  w(0, 0) = 1e-39;
  w(1, 0) = -5e-40;
  w(0, 1) = 2.0;
  w(1, 1) = -1.0;
  w(2, 2) = std::nan("");
  const QuantizedMatrix qm = quantize_per_col(w);
  EXPECT_FLOAT_EQ(qm.scale[0], 1.0f);
  EXPECT_FLOAT_EQ(qm.scale[1], 2.0f / 127.0f);
  EXPECT_TRUE(std::isnan(qm.scale[2]));
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(qm.data[i * 3 + 0], 0) << i;
    EXPECT_EQ(qm.data[i * 3 + 2], 0) << i;
  }
  EXPECT_EQ(qm.data[0 * 3 + 1], 127);
  EXPECT_EQ(qm.data[1 * 3 + 1], -64);  // -63.5 rounds half away from zero
}

}  // namespace
}  // namespace apds
