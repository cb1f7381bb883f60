#include "conv/moment_conv.h"

#include <algorithm>

#include "core/moment_activation.h"
#include "platform/thread_pool.h"

namespace apds {

MeanVar moment_conv1d_linear(const Conv1dLayer& layer, const MeanVar& input,
                             std::size_t in_len) {
  layer.check();
  APDS_CHECK_MSG(input.dim() == in_len * layer.in_channels,
                 "moment_conv1d: input width");
  APDS_CHECK_MSG(input.var.same_shape(input.mean),
                 "moment_conv1d: mean/var shape mismatch");
  const std::size_t out_t = layer.out_len(in_len);
  const double p = layer.channel_keep_prob;

  MeanVar out(input.batch(), out_t * layer.out_channels);

  // Each (batch row, output timestep) writes a disjoint out_channels slice
  // and reads shared inputs only, so the flattened (b, t) space partitions
  // across the pool freely; per-output accumulation order is unchanged.
  const std::size_t window_flops =
      2 * layer.kernel * layer.in_channels * layer.out_channels;
  const std::size_t grain = std::max<std::size_t>(1, (1 << 16) / (window_flops + 1));
  parallel_for(0, input.batch() * out_t, grain, [&](std::size_t w0,
                                                    std::size_t w1) {
    std::vector<double> partial_mean(layer.in_channels);
    for (std::size_t w = w0; w < w1; ++w) {
      const std::size_t b = w / out_t;
      const std::size_t t = w % out_t;
      const double* mu = input.mean.data() + b * input.dim();
      const double* var = input.var.data() + b * input.dim();
      const std::size_t base = t * layer.stride * layer.in_channels;
      double* out_mean =
          out.mean.data() + b * out.dim() + t * layer.out_channels;
      double* out_var =
          out.var.data() + b * out.dim() + t * layer.out_channels;
      for (std::size_t oc = 0; oc < layer.out_channels; ++oc) {
        double var_indep = 0.0;  // sum sigma^2 W^2 over the window
        std::fill(partial_mean.begin(), partial_mean.end(), 0.0);
        double mean_acc = 0.0;
        for (std::size_t k = 0; k < layer.kernel; ++k) {
          for (std::size_t c = 0; c < layer.in_channels; ++c) {
            const std::size_t i = base + k * layer.in_channels + c;
            const double w_kc = layer.weight(k * layer.in_channels + c, oc);
            partial_mean[c] += mu[i] * w_kc;
            var_indep += var[i] * w_kc * w_kc;
            mean_acc += mu[i] * w_kc;
          }
        }
        double mask_var = 0.0;  // cross-tap covariance from shared masks
        for (std::size_t c = 0; c < layer.in_channels; ++c)
          mask_var += partial_mean[c] * partial_mean[c];
        out_mean[oc] = p * mean_acc + layer.bias(0, oc);
        out_var[oc] = p * var_indep + p * (1.0 - p) * mask_var;
        if (out_var[oc] < 0.0) out_var[oc] = 0.0;
      }
    }
  });
  return out;
}

MeanVar moment_conv1d(const Conv1dLayer& layer, const MeanVar& input,
                      std::size_t in_len, const PiecewiseLinear& surrogate) {
  MeanVar out = moment_conv1d_linear(layer, input, in_len);
  moment_activation_inplace(surrogate, out);
  return out;
}

}  // namespace apds
