#include "conv/conv1d.h"

#include <cmath>
#include <functional>

#include "common/error.h"

namespace apds {

std::size_t Conv1dLayer::out_len(std::size_t in_len) const {
  APDS_CHECK_MSG(in_len >= kernel, "conv1d: in_len " << in_len
                                                     << " < kernel " << kernel);
  return (in_len - kernel) / stride + 1;
}

void Conv1dLayer::check() const {
  APDS_CHECK_MSG(kernel > 0, "conv1d: kernel " << kernel << " must be > 0");
  APDS_CHECK_MSG(stride > 0, "conv1d: stride " << stride << " must be > 0");
  APDS_CHECK_MSG(in_channels > 0,
                 "conv1d: in_channels " << in_channels << " must be > 0");
  APDS_CHECK_MSG(out_channels > 0,
                 "conv1d: out_channels " << out_channels << " must be > 0");
  APDS_CHECK_MSG(weight.rows() == kernel * in_channels &&
                     weight.cols() == out_channels,
                 "conv1d: weight shape " << weight.rows() << "x"
                                         << weight.cols() << " != "
                                         << kernel * in_channels << "x"
                                         << out_channels);
  APDS_CHECK_MSG(bias.rows() == 1 && bias.cols() == out_channels,
                 "conv1d: bias shape " << bias.rows() << "x" << bias.cols()
                                       << " != 1x" << out_channels);
  APDS_CHECK_MSG(channel_keep_prob > 0.0 && channel_keep_prob <= 1.0,
                 "conv1d: channel_keep_prob " << channel_keep_prob
                                              << " not in (0, 1]");
}

Conv1dLayer make_conv1d(std::size_t kernel, std::size_t in_channels,
                        std::size_t out_channels, std::size_t stride,
                        Activation act, double channel_keep_prob, Rng& rng) {
  Conv1dLayer layer;
  layer.kernel = kernel;
  layer.in_channels = in_channels;
  layer.out_channels = out_channels;
  layer.stride = stride;
  layer.act = act;
  layer.channel_keep_prob = channel_keep_prob;
  const std::size_t fan_in = kernel * in_channels;
  const double scale = act == Activation::kRelu
                           ? std::sqrt(2.0 / static_cast<double>(fan_in))
                           : std::sqrt(1.0 / static_cast<double>(fan_in));
  layer.weight = Matrix(fan_in, out_channels);
  for (double& v : layer.weight.flat()) v = rng.normal(0.0, scale);
  layer.bias = Matrix(1, out_channels);
  layer.check();
  return layer;
}

namespace {
/// The op-argument checks of both forward passes, once per call: the layer
/// itself, then the input width against in_len * in_channels.
void check_input(const Conv1dLayer& layer, const Matrix& input,
                 std::size_t in_len) {
  layer.check();
  APDS_CHECK_MSG(input.cols() == in_len * layer.in_channels,
                 "conv1d: input width " << input.cols() << " != in_len "
                                        << in_len << " * in_channels "
                                        << layer.in_channels);
}

// Core direct convolution over one batch with a per-sample channel scale
// vector (1.0/0.0 dropout mask, or the keep probability for the
// deterministic pass).
Matrix conv_with_channel_scale(
    const Conv1dLayer& layer, const Matrix& input, std::size_t in_len,
    const std::function<double(std::size_t sample, std::size_t channel)>&
        channel_scale) {
  const std::size_t out_t = layer.out_len(in_len);
  Matrix out(input.rows(), out_t * layer.out_channels);

  const std::size_t window = layer.kernel * layer.in_channels;
  std::vector<double> scaled(window);
  for (std::size_t b = 0; b < input.rows(); ++b) {
    const double* row = input.data() + b * input.cols();
    for (std::size_t t = 0; t < out_t; ++t) {
      const double* win = row + t * layer.stride * layer.in_channels;
      // Apply the per-channel scale once per window.
      for (std::size_t k = 0; k < layer.kernel; ++k)
        for (std::size_t c = 0; c < layer.in_channels; ++c) {
          const std::size_t i = k * layer.in_channels + c;
          scaled[i] = win[i] * channel_scale(b, c);
        }
      double* out_pos = out.data() + b * out.cols() + t * layer.out_channels;
      for (std::size_t oc = 0; oc < layer.out_channels; ++oc) {
        double acc = layer.bias(0, oc);
        for (std::size_t i = 0; i < window; ++i)
          acc += scaled[i] * layer.weight(i, oc);
        out_pos[oc] = activate(layer.act, acc);
      }
    }
  }
  return out;
}
}  // namespace

Matrix conv1d_forward(const Conv1dLayer& layer, const Matrix& input,
                      std::size_t in_len) {
  check_input(layer, input, in_len);
  const double p = layer.channel_keep_prob;
  return conv_with_channel_scale(layer, input, in_len,
                                 [p](std::size_t, std::size_t) { return p; });
}

Matrix conv1d_forward_stochastic(const Conv1dLayer& layer, const Matrix& input,
                                 std::size_t in_len, Rng& rng) {
  check_input(layer, input, in_len);
  // One mask per (sample, channel), shared across all time steps.
  Matrix mask(input.rows(), layer.in_channels, 1.0);
  if (layer.channel_keep_prob < 1.0)
    for (double& v : mask.flat())
      v = rng.bernoulli(layer.channel_keep_prob) ? 1.0 : 0.0;
  return conv_with_channel_scale(
      layer, input, in_len,
      [&mask](std::size_t b, std::size_t c) { return mask(b, c); });
}

}  // namespace apds
