#include "core/moment_fused.h"

#include <algorithm>
#include <cstdint>

#include "core/moment_activation.h"
#include "core/moment_contract.h"
#include "obs/trace.h"
#include "platform/thread_pool.h"
#include "tensor/ops.h"

namespace apds {

namespace {

constexpr std::size_t kElementwiseGrain = 1 << 15;
constexpr std::size_t kMinFlopsPerChunk = 1 << 16;
constexpr std::size_t kTile = kKernelMomentTile;
constexpr std::size_t kRows = kKernelMomentRows;

/// Build scaled_mean / var_in from the input moments (dispatched kernel,
/// elementwise, partition-invariant).
void prep_inputs(const float* mu, const float* var, std::size_t count,
                 double keep_prob, float* sm, float* vi,
                 const KernelOps& ops) {
  const float p = static_cast<float>(keep_prob);
  const float p2 = p * p;
  parallel_for(0, count, kElementwiseGrain,
               [&](std::size_t lo, std::size_t hi) {
                 ops.moment_prep_f32(mu + lo, var + lo, sm + lo, vi + lo,
                                     hi - lo, p, p2);
               });
}

/// Shared tile loop of both fused paths: `moment_tile` fills one row-block
/// x column-tile block's pre-activation moments (stack buffers), then the
/// activation tile runs in place row by row and the post-activation
/// moments spill to the output. Work units are (row-block, column-tile)
/// pairs with fixed block boundaries, so the per-element arithmetic — and
/// therefore the result — is independent of the thread count. The row
/// blocking exists for weight reuse: the moment kernel streams each W
/// slice once per block instead of once per batch row.
template <typename MomentTileFn>
void fused_tiles(float* out_mean, float* out_var, const PiecewiseLinear& f,
                 const KernelOps& ops, std::size_t batch, std::size_t n,
                 std::size_t kdim, MomentTileFn&& moment_tile) {
  const PwlView view = f.view();
  const std::size_t tiles_per_row = (n + kTile - 1) / kTile;
  const std::size_t row_blocks = (batch + kRows - 1) / kRows;
  const std::size_t block_flops = 4 * kdim * kTile * kRows;
  const std::size_t grain =
      std::max<std::size_t>(1, kMinFlopsPerChunk / (block_flops + 1));
  parallel_for(
      0, row_blocks * tiles_per_row, grain,
      [&](std::size_t lo, std::size_t hi) {
        float tmean[kRows * kTile], tvar[kRows * kTile];
        unsigned char det[kTile];
        for (std::size_t t = lo; t < hi; ++t) {
          const std::size_t r0 = (t / tiles_per_row) * kRows;
          const std::size_t r1 = std::min(batch, r0 + kRows);
          const std::size_t j0 = (t % tiles_per_row) * kTile;
          const std::size_t j1 = std::min(n, j0 + kTile);
          const std::size_t width = j1 - j0;
          moment_tile(r0, r1, j0, j1, tmean, tvar);
          for (std::size_t r = r0; r < r1; ++r) {
            float* rm = tmean + (r - r0) * width;
            float* rv = tvar + (r - r0) * width;
            if (ops.act_tile_f32(view, rm, rv, width, kDeterministicVarF,
                                 det)) {
              // Near-deterministic lanes still hold pre-activation
              // moments; finish them through the f64 scalar path.
              for (std::size_t l = 0; l < width; ++l) {
                if (!det[l]) continue;
                const ScalarMoments sm = activation_moments(
                    f, static_cast<double>(rm[l]),
                    static_cast<double>(rv[l]));
                rm[l] = static_cast<float>(sm.mean);
                rv[l] = static_cast<float>(sm.var);
              }
            }
            std::copy(rm, rm + width, out_mean + r * n + j0);
            std::copy(rv, rv + width, out_var + r * n + j0);
          }
        }
      });
}

}  // namespace

QuantizedDenseLayer quantize_dense_layer(const DenseLayer& layer) {
  QuantizedDenseLayer q;
  q.weight = quantize_per_col(layer.weight);
  // weight_sq = W∘W is entirely nonnegative, so symmetric [-127, 127]
  // quantization leaves its negative half unused — the variance path runs
  // on 7 magnitude bits instead of 8. This is deliberate: the kernels'
  // i16 pair-jam (two products summed before widening) needs |q| <= 127
  // on BOTH operands to stay exact, so an unsigned [0, 255] scheme would
  // force the slow i32 vector-multiply path. test_precision pins the
  // resulting per-depth drift; revisit only with a matching kernel change.
  q.weight_sq = quantize_per_col(square(layer.weight));
  q.bias = to_f32(layer.bias);
  return q;
}

void moment_linear_act_into(const float* in_mean, const float* in_var,
                            std::size_t batch, std::size_t kdim,
                            const float* weight, const float* bias,
                            std::size_t n, double keep_prob,
                            const PiecewiseLinear& f,
                            const FusedScratchView& scratch, float* out_mean,
                            float* out_var) {
  APDS_TRACE_SCOPE("core.moment_linear_act");
  const KernelOps& ops = kernel_ops();
  prep_inputs(in_mean, in_var, batch * kdim, keep_prob, scratch.sm,
              scratch.vi, ops);
  const float* sm = scratch.sm;
  const float* vi = scratch.vi;
  fused_tiles(out_mean, out_var, f, ops, batch, n, kdim,
              [&](std::size_t r0, std::size_t r1, std::size_t j0,
                  std::size_t j1, float* tmean, float* tvar) {
                ops.moment_tile_f32(sm, vi, weight, bias, kdim, n, r0, r1, j0,
                                    j1, tmean, tvar);
              });
  APDS_MOMENT_CONTRACT_BUF(out_mean, out_var, batch * n, n,
                           "core.moment_linear_act output");
}

void moment_linear_act_into(const float* in_mean, const float* in_var,
                            std::size_t batch, std::size_t kdim,
                            const QuantizedDenseLayer& layer,
                            double keep_prob, const PiecewiseLinear& f,
                            const FusedScratchView& scratch, float* out_mean,
                            float* out_var) {
  APDS_TRACE_SCOPE("core.moment_linear_act_i8");
  const KernelOps& ops = kernel_ops();
  prep_inputs(in_mean, in_var, batch * kdim, keep_prob, scratch.sm,
              scratch.vi, ops);

  const std::size_t n = layer.weight.cols;

  // Dynamic per-row quantization of both prepped inputs. Rows are
  // independent, so this pass is partition-invariant too.
  parallel_for(0, batch, 1, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      quantize_row_i8(scratch.sm + i * kdim, kdim, scratch.q_sm + i * kdim,
                      &scratch.sm_scale[i]);
      quantize_row_i8(scratch.vi + i * kdim, kdim, scratch.q_vi + i * kdim,
                      &scratch.vi_scale[i]);
    }
  });

  const std::int8_t* qsm = scratch.q_sm;
  const std::int8_t* qvi = scratch.q_vi;
  const std::int8_t* qw = layer.weight.data.data();
  const std::int8_t* qwsq = layer.weight_sq.data.data();
  const float* wscale = layer.weight.scale.data();
  const float* wsqscale = layer.weight_sq.scale.data();
  const float* b = layer.bias.data();
  fused_tiles(out_mean, out_var, f, ops, batch, n, kdim,
              [&](std::size_t r0, std::size_t r1, std::size_t j0,
                  std::size_t j1, float* tmean, float* tvar) {
                ops.moment_tile_i8(qsm, scratch.sm_scale, qvi,
                                   scratch.vi_scale, qw, wscale, qwsq,
                                   wsqscale, b, kdim, n, r0, r1, j0, j1, tmean,
                                   tvar);
              });
  APDS_MOMENT_CONTRACT_BUF(out_mean, out_var, batch * n, n,
                           "core.moment_linear_act_i8 output");
}

}  // namespace apds
