#include "conv/moment_conv.h"

#include <algorithm>

#include "core/moment_activation.h"
#include "platform/thread_pool.h"
#include "tensor/kernels/kernel_dispatch.h"

namespace apds {

namespace {
// Minimum flops per work unit; one window costs ~5 flops per weight.
constexpr std::size_t kMinFlopsPerUnit = 1 << 17;
// Units are whole multiples of this many windows, so the tile's
// multi-window register blocks (at most 4 windows) rarely see a remainder.
constexpr std::size_t kUnitWindows = 8;
}  // namespace

void moment_conv1d_linear_into(const Conv1dLayer& layer,
                               const double* in_mean, const double* in_var,
                               std::size_t batch, std::size_t in_len,
                               double* out_mean, double* out_var) {
  const std::size_t out_t = (in_len - layer.kernel) / layer.stride + 1;
  const std::size_t in_dim = in_len * layer.in_channels;
  const std::size_t out_dim = out_t * layer.out_channels;
  // Fixed units — a run of `per_unit` windows of one batch row, sized from
  // the shape alone — so the split never depends on the pool width.
  const std::size_t window_flops =
      5 * layer.kernel * layer.in_channels * layer.out_channels;
  const std::size_t wanted = kMinFlopsPerUnit / (window_flops + 1);
  const std::size_t per_unit =
      std::min(out_t, (wanted / kUnitWindows + 1) * kUnitWindows);
  const std::size_t units_per_row = (out_t + per_unit - 1) / per_unit;
  const KernelOps& ops = kernel_ops();
  parallel_for(0, batch * units_per_row, 1,
               [&](std::size_t lo, std::size_t hi) {
                 for (std::size_t u = lo; u < hi; ++u) {
                   const std::size_t b = u / units_per_row;
                   const std::size_t t0 = (u % units_per_row) * per_unit;
                   ops.moment_conv_tile_f64(
                       in_mean + b * in_dim, in_var + b * in_dim,
                       layer.weight.data(), layer.bias.data(), layer.kernel,
                       layer.in_channels, layer.stride, layer.out_channels,
                       layer.channel_keep_prob, t0,
                       std::min(out_t, t0 + per_unit), out_mean + b * out_dim,
                       out_var + b * out_dim);
                 }
               });
}

MeanVar moment_conv1d_linear(const Conv1dLayer& layer, const MeanVar& input,
                             std::size_t in_len) {
  layer.check();
  const std::size_t out_t = layer.out_len(in_len);
  APDS_CHECK_MSG(input.dim() == in_len * layer.in_channels,
                 "moment_conv1d: input width " << input.dim()
                                               << " != in_len " << in_len
                                               << " * in_channels "
                                               << layer.in_channels);
  APDS_CHECK_MSG(input.var.same_shape(input.mean),
                 "moment_conv1d: mean/var shape mismatch");
  MeanVar out(input.batch(), out_t * layer.out_channels);
  moment_conv1d_linear_into(layer, input.mean.data(), input.var.data(),
                            input.batch(), in_len, out.mean.data(),
                            out.var.data());
  return out;
}

MeanVar moment_conv1d(const Conv1dLayer& layer, const MeanVar& input,
                      std::size_t in_len, const PiecewiseLinear& surrogate) {
  MeanVar out = moment_conv1d_linear(layer, input, in_len);
  moment_activation_inplace(surrogate, out);
  return out;
}

}  // namespace apds
