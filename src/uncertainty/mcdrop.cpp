#include "uncertainty/mcdrop.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>

#include "common/error.h"
#include "core/arena.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "platform/thread_pool.h"
#include "stats/special.h"
#include "tensor/kernels/kernel_dispatch.h"

namespace apds {

namespace {

/// Rows one stacked product holds. A group stacks max(1, budget / batch)
/// samples, so batch-1 serving runs MCDrop-50 as one 50-row product per
/// layer, while a batch wider than the budget runs one sample per group
/// and the two ping-pong blocks never hold more than max(batch, budget)
/// rows of the widest layer, whatever k is.
constexpr std::size_t kStackRowBudget = 64;

/// Columns of one parallel work unit of a stacked product: a multiple of
/// every tier's register block, so no unit splits one.
constexpr std::size_t kPanelCols = 64;

constexpr std::size_t kMinFlopsPerChunk = 1 << 16;
constexpr std::size_t kElementwiseGrain = 1 << 15;

/// Scratch layout of a stacked run over `batch` rows.
struct StackPlan {
  std::size_t group = 0;  ///< samples per group
  std::size_t block = 0;  ///< bytes of one ping-pong block
};

StackPlan plan_stack(const Mlp& mlp, std::size_t batch, std::size_t k) {
  std::size_t width = mlp.input_dim();
  for (std::size_t l = 0; l < mlp.num_layers(); ++l)
    width = std::max(width, mlp.layer(l).out_dim());
  StackPlan plan;
  plan.group = std::min(
      k, std::max<std::size_t>(1, kStackRowBudget / std::max<std::size_t>(
                                                        batch, 1)));
  plan.block = arena_round(plan.group * batch * width * sizeof(double));
  return plan;
}

/// The plan's two ping-pong blocks and an output region of `outputs`
/// doubles, carved from the calling thread's scratch.
struct StackBuffers {
  double* block0;
  double* block1;
  double* out;
};

StackBuffers stack_buffers(const StackPlan& plan, std::size_t outputs) {
  std::byte* scratch = thread_scratch().require(
      2 * plan.block + arena_round(outputs * sizeof(double)));
  return {reinterpret_cast<double*>(scratch),
          reinterpret_cast<double*>(scratch + plan.block),
          reinterpret_cast<double*>(scratch + 2 * plan.block)};
}

KernelAct kernel_act(Activation act) {
  switch (act) {
    case Activation::kIdentity: return KernelAct::kIdentity;
    case Activation::kRelu: return KernelAct::kRelu;
    case Activation::kTanh: return KernelAct::kTanh;
    case Activation::kSigmoid: return KernelAct::kSigmoid;
  }
  throw InvalidArgument("unknown activation");
}

/// g samples of MCDrop through one stacked pass. Sample s owns rows
/// [s batch, (s + 1) batch) of every layer's block and draws its masks
/// from streams[s] in Mlp::forward_stochastic's row-major order, so its
/// rows are that pass's output for the same stream (bit-identical on the
/// scalar kernel tier; the wide tiers' FMA GEMM and libm-free tanh/sigmoid
/// epilogue stay within 1e-12). A mask element is the integer form of
/// bernoulli(keep), the same draw and outcome, times the element, so NaN,
/// Inf and -0 inputs behave as in hadamard_inplace. While no mask has been drawn the samples are
/// identical and the block holds one copy. block0/block1 each hold g
/// batch rows of the widest layer; the last layer writes the group's
/// network outputs to `out` ([g batch, out_dim], sample-major).
void mcdrop_forward_group(const Mlp& mlp, const Matrix& x, Rng* streams,
                          std::size_t g, double* block0, double* block1,
                          double* out) {
  APDS_TRACE_SCOPE("mcdrop.group");
  const KernelOps& ops = kernel_ops();
  const std::size_t batch = x.rows();
  const std::size_t layers = mlp.num_layers();
  std::memcpy(block0, x.data(), x.size() * sizeof(double));
  double* h = block0;
  double* spare = block1;
  bool shared = true;  // h holds the one copy every sample shares
  for (std::size_t l = 0; l < layers; ++l) {
    const DenseLayer& layer = mlp.layer(l);
    const std::size_t in = layer.in_dim();
    const std::size_t n = layer.out_dim();
    const std::size_t sample_in = batch * in;
    if (layer.keep_prob < 1.0) {
      if (shared) {
        for (std::size_t s = 1; s < g; ++s)
          std::memcpy(h + s * sample_in, h, sample_in * sizeof(double));
        shared = false;
      }
      const std::uint64_t keep = Rng::bernoulli_threshold(layer.keep_prob);
      parallel_for(0, g, 1, [&](std::size_t s0, std::size_t s1) {
        for (std::size_t s = s0; s < s1; ++s) {
          double* hs = h + s * sample_in;
          Rng& rng = streams[s];
          for (std::size_t i = 0; i < sample_in; ++i)
            hs[i] *= rng.bernoulli_below(keep) ? 1.0 : 0.0;
        }
      });
    }
    const std::size_t rows = shared ? batch : g * batch;
    double* y = l + 1 == layers ? out : spare;
    const double* w = layer.weight.data();
    const double* bias = layer.bias.data();
    const KernelAct act = kernel_act(layer.act);
    const std::size_t panels = (n + kPanelCols - 1) / kPanelCols;
    const std::size_t row_chunks =
        (rows + kStackRowBudget - 1) / kStackRowBudget;
    const std::size_t grain = std::max<std::size_t>(
        1, kMinFlopsPerChunk / (2 * kStackRowBudget * in * kPanelCols + 1));
    parallel_for(0, row_chunks * panels, grain,
                 [&](std::size_t u0, std::size_t u1) {
                   for (std::size_t u = u0; u < u1; ++u) {
                     const std::size_t i0 = (u / panels) * kStackRowBudget;
                     const std::size_t i1 =
                         std::min(rows, i0 + kStackRowBudget);
                     const std::size_t j0 = (u % panels) * kPanelCols;
                     const std::size_t j1 = std::min(n, j0 + kPanelCols);
                     ops.gemm_tile_f64(h, w, y, in, n, i0, i1, j0, j1);
                     ops.bias_act_f64(y, bias, n, i0, i1, j0, j1, act);
                   }
                 });
    spare = h;
    h = y;
  }
  if (shared) {
    // No layer drops anything: every sample is the deterministic output.
    const std::size_t sample_out = batch * mlp.output_dim();
    for (std::size_t s = 1; s < g; ++s)
      std::memcpy(out + s * sample_out, out, sample_out * sizeof(double));
  }
}

void count_samples(std::size_t k) {
  MetricsRegistry::instance().counter("mcdrop.samples").add(
      static_cast<std::int64_t>(k));
}

/// Mean and unbiased variance over the first k samples, sample(s) the
/// [batch, d] row-major output of pass s. Per element: the sum in sample
/// order, times 1/k; then the squared deviations in sample order, times
/// 1/(k - 1), floored. Allocates only the two returned matrices.
template <typename SampleAt>
PredictiveGaussian summarize_regression(const SampleAt& sample, std::size_t k,
                                        std::size_t batch, std::size_t d,
                                        double var_floor) {
  PredictiveGaussian out;
  out.mean = Matrix(batch, d);
  out.var = Matrix(batch, d);
  double* mean = out.mean.data();
  double* var = out.var.data();
  const double inv_k = 1.0 / static_cast<double>(k);
  const double inv_k1 = 1.0 / static_cast<double>(k - 1);
  parallel_for(0, batch * d, kElementwiseGrain,
               [&](std::size_t lo, std::size_t hi) {
                 for (std::size_t s = 0; s < k; ++s) {
                   const double* y = sample(s);
                   for (std::size_t i = lo; i < hi; ++i) mean[i] += y[i];
                 }
                 for (std::size_t i = lo; i < hi; ++i) mean[i] *= inv_k;
                 for (std::size_t s = 0; s < k; ++s) {
                   const double* y = sample(s);
                   for (std::size_t i = lo; i < hi; ++i) {
                     const double dev = y[i] - mean[i];
                     var[i] += dev * dev;
                   }
                 }
                 for (std::size_t i = lo; i < hi; ++i)
                   var[i] = std::max(var[i] * inv_k1, var_floor);
               });
  return out;
}

/// Per-pass softmax probabilities averaged over the first k samples:
/// per element the sum of exp(logit - logsumexp(row)) in sample order,
/// times 1/k. Allocates only the returned matrix.
template <typename SampleAt>
PredictiveCategorical summarize_classification(const SampleAt& sample,
                                               std::size_t k,
                                               std::size_t batch,
                                               std::size_t classes) {
  PredictiveCategorical out;
  out.probs = Matrix(batch, classes);
  double* probs = out.probs.data();
  const double inv_k = 1.0 / static_cast<double>(k);
  const std::size_t grain =
      std::max<std::size_t>(1, kElementwiseGrain / (k * classes + 1));
  parallel_for(0, batch, grain, [&](std::size_t r0, std::size_t r1) {
    for (std::size_t r = r0; r < r1; ++r) {
      double* p = probs + r * classes;
      for (std::size_t s = 0; s < k; ++s) {
        const double* logits = sample(s) + r * classes;
        const double lse = logsumexp({logits, classes});
        for (std::size_t c = 0; c < classes; ++c)
          p[c] += std::exp(logits[c] - lse);
      }
      for (std::size_t c = 0; c < classes; ++c) p[c] *= inv_k;
    }
  });
  return out;
}

/// The stacked outputs of all k samples in the calling thread's scratch
/// when they fit one group (batch-1 serving), else null. Valid until the
/// thread's next scratch use.
const double* stacked_samples(const Mlp& mlp, const Matrix& x, std::size_t k,
                              Rng& rng) {
  APDS_CHECK_MSG(x.cols() == mlp.input_dim(), "forward: input dim");
  const StackPlan plan = plan_stack(mlp, x.rows(), k);
  if (plan.group < k) return nullptr;
  const StackBuffers buf =
      stack_buffers(plan, k * x.rows() * mlp.output_dim());
  Rng streams[kStackRowBudget];
  for (std::size_t s = 0; s < k; ++s) streams[s] = rng.split();
  mcdrop_forward_group(mlp, x, streams, k, buf.block0, buf.block1, buf.out);
  count_samples(k);
  return buf.out;
}

}  // namespace

std::vector<Matrix> mcdrop_collect(const Mlp& mlp, const Matrix& x,
                                   std::size_t k, Rng& rng) {
  APDS_CHECK(k > 0);
  APDS_CHECK_MSG(x.cols() == mlp.input_dim(), "forward: input dim");
  TraceSpan span("mcdrop.collect");
  if (span.active())
    span.set_args("\"k\":" + std::to_string(k) +
                  ",\"batch\":" + std::to_string(x.rows()));
  // Each sample gets its own RNG stream, split from the caller's generator
  // serially and in sample order — group by group, which is the same
  // sequence — so sample s sees the same stream for every thread count
  // and `rng` ends in the same state.
  const StackPlan plan = plan_stack(mlp, x.rows(), k);
  const std::size_t sample_size = x.rows() * mlp.output_dim();
  const StackBuffers buf = stack_buffers(plan, plan.group * sample_size);
  std::vector<Matrix> samples;
  samples.reserve(k);
  Rng streams[kStackRowBudget];
  for (std::size_t s0 = 0; s0 < k; s0 += plan.group) {
    const std::size_t g = std::min(plan.group, k - s0);
    for (std::size_t s = 0; s < g; ++s) streams[s] = rng.split();
    mcdrop_forward_group(mlp, x, streams, g, buf.block0, buf.block1, buf.out);
    for (std::size_t s = 0; s < g; ++s) {
      samples.emplace_back(x.rows(), mlp.output_dim());
      std::memcpy(samples.back().data(), buf.out + s * sample_size,
                  sample_size * sizeof(double));
    }
  }
  count_samples(k);
  return samples;
}

PredictiveGaussian mcdrop_regression_from_samples(
    std::span<const Matrix> samples, std::size_t k, double var_floor) {
  APDS_CHECK_MSG(k >= 2, "MCDrop regression needs k >= 2 for a variance");
  APDS_CHECK(samples.size() >= k);
  APDS_TRACE_SCOPE("mcdrop.reduce_regression");
  return summarize_regression(
      [&](std::size_t s) { return samples[s].data(); }, k, samples[0].rows(),
      samples[0].cols(), var_floor);
}

PredictiveCategorical mcdrop_classification_from_samples(
    std::span<const Matrix> samples, std::size_t k) {
  APDS_CHECK(k >= 1 && samples.size() >= k);
  APDS_TRACE_SCOPE("mcdrop.reduce_classification");
  return summarize_classification(
      [&](std::size_t s) { return samples[s].data(); }, k, samples[0].rows(),
      samples[0].cols());
}

McDrop::McDrop(const Mlp& mlp, std::size_t k, std::uint64_t seed,
               double var_floor)
    : mlp_(&mlp), k_(k), var_floor_(var_floor), rng_(seed) {
  APDS_CHECK(k >= 2);
}

std::string McDrop::name() const { return "MCDrop-" + std::to_string(k_); }

// Both predicts summarize straight from the stacked block when the k
// samples fit one group, and through mcdrop_collect's per-sample matrices
// otherwise; the two give the same bits.
PredictiveGaussian McDrop::predict_regression(const Matrix& x) const {
  Rng rng = rng_.split();
  const std::size_t size = x.rows() * mlp_->output_dim();
  if (const double* stacked = stacked_samples(*mlp_, x, k_, rng)) {
    APDS_TRACE_SCOPE("mcdrop.reduce_regression");
    return summarize_regression(
        [&](std::size_t s) { return stacked + s * size; }, k_, x.rows(),
        mlp_->output_dim(), var_floor_);
  }
  const auto samples = mcdrop_collect(*mlp_, x, k_, rng);
  return mcdrop_regression_from_samples(samples, k_, var_floor_);
}

PredictiveCategorical McDrop::predict_classification(const Matrix& x) const {
  Rng rng = rng_.split();
  const std::size_t size = x.rows() * mlp_->output_dim();
  if (const double* stacked = stacked_samples(*mlp_, x, k_, rng)) {
    APDS_TRACE_SCOPE("mcdrop.reduce_classification");
    return summarize_classification(
        [&](std::size_t s) { return stacked + s * size; }, k_, x.rows(),
        mlp_->output_dim());
  }
  const auto samples = mcdrop_collect(*mlp_, x, k_, rng);
  return mcdrop_classification_from_samples(samples, k_);
}

}  // namespace apds
