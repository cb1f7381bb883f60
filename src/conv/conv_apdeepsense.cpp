#include "conv/conv_apdeepsense.h"

#include <algorithm>

#include "common/precision.h"
#include "core/arena.h"
#include "core/moment_activation.h"
#include "core/moment_contract.h"
#include "obs/trace.h"

namespace apds {

ConvApDeepSense::ConvApDeepSense(const ConvNet& net, ApDeepSenseConfig config)
    : net_(&net),
      config_(config),
      head_(net.head(), config),
      id_(new_arena_owner_id()) {
  conv_surrogates_.reserve(net.num_conv_layers());
  for (std::size_t l = 0; l < net.num_conv_layers(); ++l)
    conv_surrogates_.push_back(PiecewiseLinear::for_activation(
        net.conv(l).act, config_.saturating_pieces));
}

MeanVar ConvApDeepSense::propagate(const Matrix& x) const {
  return propagate(MeanVar::point(x));
}

MeanVar ConvApDeepSense::propagate(const MeanVar& input) const {
  MeanVar out;
  propagate(input, out);
  return out;
}

ConvApDeepSense::ThreadArena& ConvApDeepSense::thread_arena() const {
  if (auto* ta = static_cast<ThreadArena*>(thread_arena_lookup(id_)))
    return *ta;
  MutexLock lk(&arenas_mu_);
  arenas_.push_back(std::make_unique<ThreadArena>());
  thread_arena_bind(id_, arenas_.back().get());
  return *arenas_.back();
}

void ConvApDeepSense::propagate(const MeanVar& input, MeanVar& out) const {
  APDS_TRACE_SCOPE("apd.conv_propagate");
  const std::size_t width = net_->input_len() * net_->input_channels();
  APDS_CHECK_MSG(input.dim() == width,
                 "ConvApDeepSense: input width "
                     << input.dim() << " != input_len " << net_->input_len()
                     << " * input_channels " << net_->input_channels());
  APDS_CHECK_MSG(input.var.same_shape(input.mean),
                 "ConvApDeepSense: mean/var shape mismatch");
  APDS_CHECK_MSG(&input != &out, "ConvApDeepSense: output aliases input");
  check_moment_contract_buffers(input.mean.data(), input.var.data(),
                                input.mean.size(), width,
                                "conv.propagate input");
  const std::size_t batch = input.batch();
  const std::size_t L = net_->num_conv_layers();

  // Layers 0..L-2 ping-pong between two parity slots of the thread's
  // scratch arena (shared with moment_rnn and the Matrix-level
  // moment_linear), each sized by the widest output of its parity; the
  // last layer writes the thread's feature batch, which feeds the head.
  std::size_t slot_dim[2] = {0, 0};
  std::size_t len = net_->input_len();
  for (std::size_t l = 0; l + 1 < L; ++l) {
    len = net_->conv(l).out_len(len);
    slot_dim[l % 2] =
        std::max(slot_dim[l % 2], len * net_->conv(l).out_channels);
  }
  const std::size_t slot[2] = {
      arena_round(batch * slot_dim[0] * sizeof(double)),
      arena_round(batch * slot_dim[1] * sizeof(double))};
  std::byte* scratch = thread_scratch().require(2 * (slot[0] + slot[1]));
  double* slot_mean[2] = {reinterpret_cast<double*>(scratch),
                          reinterpret_cast<double*>(scratch + 2 * slot[0])};
  double* slot_var[2] = {
      reinterpret_cast<double*>(scratch + slot[0]),
      reinterpret_cast<double*>(scratch + 2 * slot[0] + slot[1])};
  MeanVar& features = thread_arena().features;

  const double* cm = input.mean.data();
  const double* cv = input.var.data();
  std::size_t in_len = net_->input_len();
  for (std::size_t l = 0; l < L; ++l) {
    const Conv1dLayer& layer = net_->conv(l);
    TraceSpan span("apd.conv_layer");
    if (span.active())
      span.set_args("\"layer\":" + std::to_string(l) +
                    ",\"in_ch\":" + std::to_string(layer.in_channels) +
                    ",\"out_ch\":" + std::to_string(layer.out_channels) +
                    ",\"kernel\":" + std::to_string(layer.kernel) +
                    ",\"in_len\":" + std::to_string(in_len) +
                    ",\"act\":\"" + activation_name(layer.act) + "\"");
    const std::size_t out_len = layer.out_len(in_len);
    const std::size_t out_dim = out_len * layer.out_channels;
    double* om = slot_mean[l % 2];
    double* ov = slot_var[l % 2];
    if (l + 1 == L) {
      // Capacity-retaining resizes: they allocate only while a thread warms
      // up.
      features.mean.resize(batch, out_dim);
      features.var.resize(batch, out_dim);
      om = features.mean.data();
      ov = features.var.data();
    }
    moment_conv1d_linear_into(layer, cm, cv, batch, in_len, om, ov);
    moment_activation_batch(conv_surrogates_[l], om, ov, batch * out_dim);
    cm = om;
    cv = ov;
    in_len = out_len;
  }
  head_.session(global_precision())->propagate(L == 0 ? input : features,
                                               out);
}

}  // namespace apds
