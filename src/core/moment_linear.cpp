#include "core/moment_linear.h"

#include <algorithm>

#include "core/arena.h"
#include "core/moment_contract.h"
#include "obs/trace.h"
#include "platform/thread_pool.h"
#include "tensor/kernels/kernel_dispatch.h"

namespace apds {

namespace {

constexpr std::size_t kElementwiseGrain = 1 << 15;
constexpr std::size_t kMinFlopsPerChunk = 1 << 16;
constexpr std::size_t kTile = kKernelMomentTile;
constexpr std::size_t kRows = kKernelMomentRows;

/// Both f64 moment products, bias and clamp through the dispatched tile.
/// Work units are fused_tiles' fixed (row-block x column-tile) pairs
/// (core/moment_fused.cpp), so the result is bit-identical across thread
/// counts within a kernel tier.
void moment_tiles_f64(const double* sm, const double* vi,
                      const double* weight, const double* bias,
                      std::size_t batch, std::size_t kdim, std::size_t n,
                      double* out_mean, double* out_var) {
  const KernelOps& ops = kernel_ops();
  const std::size_t tiles_per_row = (n + kTile - 1) / kTile;
  const std::size_t row_blocks = (batch + kRows - 1) / kRows;
  const std::size_t block_flops = 4 * kdim * kTile * kRows;
  const std::size_t grain =
      std::max<std::size_t>(1, kMinFlopsPerChunk / (block_flops + 1));
  parallel_for(0, row_blocks * tiles_per_row, grain,
               [&](std::size_t lo, std::size_t hi) {
                 for (std::size_t t = lo; t < hi; ++t) {
                   const std::size_t r0 = (t / tiles_per_row) * kRows;
                   const std::size_t j0 = (t % tiles_per_row) * kTile;
                   ops.moment_tile_f64(sm, vi, weight, bias, kdim, n, r0,
                                       std::min(batch, r0 + kRows), j0,
                                       std::min(n, j0 + kTile), out_mean,
                                       out_var);
                 }
               });
}

}  // namespace

void moment_linear_into(const double* in_mean, const double* in_var,
                        std::size_t batch, std::size_t in_dim,
                        const double* weight, const double* bias,
                        std::size_t out_dim, double keep_prob, double* sm,
                        double* vi, double* out_mean, double* out_var) {
  APDS_TRACE_SCOPE("core.moment_linear");
  const double p = keep_prob;
  const double p2 = p * p;

  // One fused elementwise pass builds both product inputs:
  //   scaled_mean = mu p                          (E[y] = (mu p) W + b)
  //   var_in      = (mu^2 + sigma^2) p - mu^2 p^2 (Var[y] = var_in W^2)
  parallel_for(0, batch * in_dim, kElementwiseGrain,
               [&](std::size_t lo, std::size_t hi) {
                 for (std::size_t i = lo; i < hi; ++i) {
                   const double mu2 = in_mean[i] * in_mean[i];
                   sm[i] = in_mean[i] * p;
                   vi[i] = (mu2 + in_var[i]) * p - mu2 * p2;
                 }
               });
  moment_tiles_f64(sm, vi, weight, bias, batch, in_dim, out_dim, out_mean,
                   out_var);
  APDS_MOMENT_CONTRACT_BUF(out_mean, out_var, batch * out_dim, out_dim,
                           "core.moment_linear output");
}

MeanVar moment_linear(const MeanVar& input, const Matrix& weight,
                      const Matrix& bias, double keep_prob) {
  APDS_CHECK_MSG(input.dim() == weight.rows(), "moment_linear: input dim");
  APDS_CHECK_MSG(input.var.same_shape(input.mean),
                 "moment_linear: mean/var shape mismatch");
  // The bias broadcast reads bias[j] for every output column j.
  APDS_CHECK_MSG(bias.rows() == 1 && bias.cols() == weight.cols(),
                 "moment_linear: bias shape");
  APDS_CHECK(keep_prob > 0.0 && keep_prob <= 1.0);
  const std::size_t batch = input.batch();
  const std::size_t in_dim = input.dim();

  MeanVar out(batch, weight.cols());

  // The two product inputs derived from the layer input live in the calling
  // thread's scratch arena: reused across layers and calls, so a warmed-up
  // call allocates only its outputs. Sessions skip this wrapper entirely
  // and pass arena-planned slices.
  const std::size_t slice = arena_round(batch * in_dim * sizeof(double));
  std::byte* scratch = thread_scratch().require(2 * slice);
  double* sm = reinterpret_cast<double*>(scratch);
  double* vi = reinterpret_cast<double*>(scratch + slice);

  moment_linear_into(input.mean.data(), input.var.data(), batch, in_dim,
                     weight.data(), bias.data(), weight.cols(), keep_prob, sm,
                     vi, out.mean.data(), out.var.data());
  return out;
}

MeanVar moment_linear(const MeanVar& input, const DenseLayer& layer) {
  return moment_linear(input, layer.weight, layer.bias, layer.keep_prob);
}

GaussianVec moment_linear(const GaussianVec& input, const DenseLayer& layer) {
  MeanVar batch(1, input.dim());
  std::copy(input.mean.begin(), input.mean.end(), batch.mean.row(0).begin());
  std::copy(input.var.begin(), input.var.end(), batch.var.row(0).begin());
  return moment_linear(batch, layer).row(0);
}

}  // namespace apds
