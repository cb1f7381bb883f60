#include "probes.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "conv/conv_apdeepsense.h"
#include "conv/conv_io.h"
#include "conv/moment_conv.h"
#include "core/softmax_approx.h"
#include "nn/model_io.h"
#include "obs/alloc_stats.h"
#include "platform/cost_model.h"
#include "tensor/gemm.h"
#include "uncertainty/mcdrop.h"

namespace e2e {

using apds::Activation;
using apds::DenseLayer;
using apds::InferenceSession;
using apds::Matrix;
using apds::MeanVar;
using apds::Mlp;
using apds::Precision;
using apds::Rng;

namespace {

constexpr Precision kPrecisions[3] = {Precision::kF64, Precision::kF32,
                                      Precision::kI8};
constexpr std::size_t kBatch = 64;
/// The probed 512x512 layer of each BPEst network (a hidden-to-hidden one).
constexpr std::size_t kProbeLayer = 1;

/// Median wall time of one call of `fn`, in ms: one warm call, then at
/// least `min_reps` calls and at least `min_s` seconds.
template <typename F>
double time_ms(F&& fn, double min_s, std::size_t min_reps = 5) {
  fn();
  std::vector<double> times;
  const auto start = Clock::now();
  while (times.size() < min_reps ||
         seconds_between(start, Clock::now()) < min_s) {
    const auto t0 = Clock::now();
    fn();
    times.push_back(seconds_between(t0, Clock::now()) * 1e3);
  }
  return median(std::move(times));
}

/// Heap allocations per call of `fn` once warm.
template <typename F>
double allocs_per_call(F&& fn, std::size_t reps = 8) {
  fn();
  const auto before = apds::obs::thread_alloc_counters();
  for (std::size_t r = 0; r < reps; ++r) fn();
  const auto delta = apds::obs::thread_alloc_counters() - before;
  return static_cast<double>(delta.allocs) / static_cast<double>(reps);
}

std::size_t weight_width(Precision p) {
  return p == Precision::kF64 ? 8 : p == Precision::kF32 ? 4 : 1;
}

std::size_t moment_width(Precision p) { return p == Precision::kF64 ? 8 : 4; }

apds::SessionConfig session_config(Precision p, std::size_t batch) {
  apds::SessionConfig config;
  config.precision = p;
  config.max_batch = batch;
  return config;
}

/// `layer` made a hidden layer by an out->1 identity head, so each
/// precision treats it as it treats the network's hidden layers. The head
/// costs about 0.1 % and is ignored.
Mlp layer_probe_net(const DenseLayer& layer, Rng& rng) {
  DenseLayer head;
  head.weight = Matrix(layer.out_dim(), 1);
  const double scale = 1.0 / std::sqrt(static_cast<double>(layer.out_dim()));
  for (double& v : head.weight.flat()) v = rng.normal(0.0, scale);
  head.bias = Matrix(1, 1);
  head.keep_prob = 0.9;
  return Mlp::from_layers({layer, head});
}

/// What layer `l` of `mlp` sees for input `in`: the f64 moments of layers
/// 0 .. l-1.
MeanVar layer_input(const Mlp& mlp, std::size_t l, const MeanVar& in) {
  if (l == 0) return in;
  std::vector<DenseLayer> prefix;
  for (std::size_t i = 0; i < l; ++i) prefix.push_back(mlp.layer(i));
  const InferenceSession session(Mlp::from_layers(std::move(prefix)),
                                 session_config(Precision::kF64, 0));
  return session.propagate(in);
}

class Prober {
 public:
  explicit Prober(bool quick) : min_s_(quick ? 0.01 : 0.25) {}

  void metric(const std::string& name, double value, const std::string& unit) {
    out_.metrics.push_back({name, value, unit});
  }

  /// Time `fn` and record a roofline row; returns ms.
  template <typename F>
  double row(const std::string& name, double flops, double bytes, F&& fn) {
    const double ms = time_ms(fn, min_s_);
    out_.rows.push_back({name, ms, flops, bytes});
    return ms;
  }

  /// Time a session over `mlp` at `p` propagating `in`; returns ms.
  double propagate(const std::string& name, const Mlp& mlp, Precision p,
                   const MeanVar& in) {
    const InferenceSession session(mlp, session_config(p, in.batch()));
    MeanVar out;
    double bytes = 0.0;
    for (std::size_t l = 0; l < mlp.num_layers(); ++l) {
      const DenseLayer& layer = mlp.layer(l);
      bytes += static_cast<double>(
          2 * layer.in_dim() * layer.out_dim() * weight_width(p) +
          2 * in.batch() * (layer.in_dim() + layer.out_dim()) * moment_width(p));
    }
    const double flops =
        apds::flops_apdeepsense(mlp) * static_cast<double>(in.batch());
    const double ms = row(name, flops, bytes, [&] { session.propagate(in, out); });
    max_allocs_ = std::max(max_allocs_,
                           allocs_per_call([&] { session.propagate(in, out); }));
    return ms;
  }

  const ProbeRow& last() const { return out_.rows.back(); }
  double max_session_allocs() const { return max_allocs_; }
  ProbeResult take() { return std::move(out_); }

 private:
  double min_s_;
  double max_allocs_ = 0.0;
  ProbeResult out_;
};

double gflops(const ProbeRow& r) { return r.flops / (r.ms * 1e-3) / 1e9; }
double gbps(const ProbeRow& r) { return r.bytes / (r.ms * 1e-3) / 1e9; }

/// Single-thread streaming triad a = b + s*c over 256 MiB (three arrays),
/// best of several passes: the memory-bandwidth ceiling of every .gbps.
double stream_triad_gbps(std::size_t passes) {
  const std::size_t n = (std::size_t{256} << 20) / (3 * sizeof(double));
  std::vector<double> a(n), b(n, 1.0), c(n, 2.0);
  double best = std::numeric_limits<double>::infinity();
  for (std::size_t p = 0; p < passes; ++p) {
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < n; ++i) a[i] = b[i] + 3.0 * c[i];
    best = std::min(best, seconds_between(t0, Clock::now()));
    b[p % n] = a[(p * 7919) % n];  // keep every pass observable
  }
  return 3.0 * static_cast<double>(n * sizeof(double)) / best / 1e9;
}

}  // namespace

ProbeResult run_probes(Fixture& fx, bool quick) {
  Prober pr(quick);
  Rng rng(derive_seed(fx.seed(), 500));
  const PaperNet& tanh_net = fx.net(apds::TaskId::kBpest, Activation::kTanh);
  const PaperNet& relu_net = fx.net(apds::TaskId::kBpest, Activation::kRelu);

  // nn: loading a network from disk.
  Mlp tanh_mlp;
  pr.metric("nn.load_model.ms", pr.row("nn.load_model", 0.0, 0.0, [&] {
    tanh_mlp = apds::load_model(tanh_net.path);
  }), "ms");
  const Mlp relu_mlp = apds::load_model(relu_net.path);

  Matrix x1 = tanh_net.x_test->row_copy(0);
  Matrix x64(kBatch, x1.cols());
  for (std::size_t r = 0; r < kBatch; ++r) {
    const auto row = tanh_net.x_test->row(r % tanh_net.x_test->rows());
    std::copy(row.begin(), row.end(), x64.row(r).begin());
  }
  for (double& v : x64.flat()) v += rng.normal(0.0, 0.05);
  const MeanVar in1 = MeanVar::point(x1);
  const MeanVar in64 = MeanVar::point(x64);

  // core at batch 1 (edge_b1): whole propagate vs the sum of its layers.
  const double prop_b1 = pr.propagate("core.propagate.f32.b1", tanh_mlp,
                                      Precision::kF32, in1);
  pr.metric("core.propagate.f32.b1.ms", prop_b1, "ms");
  double layers_b1 = 0.0;
  for (std::size_t l = 0; l < tanh_mlp.num_layers(); ++l) {
    const Mlp probe = layer_probe_net(tanh_mlp.layer(l), rng);
    layers_b1 += pr.propagate("core.layer" + std::to_string(l) + ".f32.b1",
                              probe, Precision::kF32,
                              layer_input(tanh_mlp, l, in1));
  }
  pr.metric("core.overhead.f32.b1.us", (prop_b1 - layers_b1) * 1e3, "us");
  for (const auto& [name, mlp] :
       {std::pair<const char*, const Mlp*>{"relu512", &relu_mlp},
        std::pair<const char*, const Mlp*>{"tanh512", &tanh_mlp}}) {
    const Mlp probe = layer_probe_net(mlp->layer(kProbeLayer), rng);
    const MeanVar in = layer_input(*mlp, kProbeLayer, in1);
    const std::string base = std::string("core.layer.") + name;
    pr.metric(base + ".f32.b1.ms",
              pr.propagate(base + ".f32.b1", probe, Precision::kF32, in), "ms");
    pr.metric(base + ".f32.b1.gbps", gbps(pr.last()), "GB/s");
  }
  {
    const Mlp probe = layer_probe_net(tanh_mlp.layer(kProbeLayer), rng);
    const MeanVar in = layer_input(tanh_mlp, kProbeLayer, in1);
    for (Precision p : {Precision::kF64, Precision::kI8}) {
      const std::string name =
          std::string("core.layer.tanh512.") + apds::precision_name(p) + ".b1";
      pr.metric(name + ".ms", pr.propagate(name, probe, p, in), "ms");
    }
  }
  {
    const PaperNet& hhar = fx.net(apds::TaskId::kHhar, Activation::kTanh);
    const apds::GaussianVec logits =
        hhar.reference->propagate(hhar.x_test->row_copy(0)).row(0);
    std::vector<double> probs;
    constexpr int kCalls = 1000;
    pr.metric("core.softmax_meanfield.us",
              pr.row("core.softmax_meanfield.x1000", 0.0, 0.0, [&] {
                for (int c = 0; c < kCalls; ++c)
                  probs = apds::softmax_meanfield(logits);
              }) * 1e3 / kCalls,
              "us");
  }

  // core at batch 64 (batch64): propagate, the tanh layer, its linear part.
  {
    const Mlp tanh_probe = layer_probe_net(tanh_mlp.layer(kProbeLayer), rng);
    DenseLayer linear = tanh_mlp.layer(kProbeLayer);
    linear.act = Activation::kIdentity;
    const Mlp linear_probe = layer_probe_net(linear, rng);
    const MeanVar in = layer_input(tanh_mlp, kProbeLayer, in64);
    for (Precision p : kPrecisions) {
      const std::string pn = apds::precision_name(p);
      pr.metric("core.propagate." + pn + ".b64.ms",
                pr.propagate("core.propagate." + pn + ".b64", tanh_mlp, p, in64),
                "ms");
      const double tanh_ms = pr.propagate("core.layer.tanh512." + pn + ".b64",
                                          tanh_probe, p, in);
      pr.metric("core.layer.tanh512." + pn + ".b64.ms", tanh_ms, "ms");
      pr.metric("core.layer.tanh512." + pn + ".b64.gflops", gflops(pr.last()),
                "GFLOP/s");
      const double linear_ms =
          pr.propagate("core.linear512." + pn + ".b64", linear_probe, p, in);
      pr.metric("core.linear512." + pn + ".b64.ms", linear_ms, "ms");
      pr.metric("core.act_tanh." + pn + ".b64.ms", tanh_ms - linear_ms, "ms");
    }
  }
  pr.metric("core.allocs_per_req", pr.max_session_allocs(), "count");

  // core set-up and footprint (setup_s, mem_mb).
  for (Precision p : kPrecisions) {
    const std::string pn = apds::precision_name(p);
    pr.metric("core.session_build." + pn + ".ms",
              pr.row("core.session_build." + pn, 0.0, 0.0, [&] {
                const InferenceSession s(tanh_mlp, session_config(p, kBatch));
              }),
              "ms");
    const InferenceSession s(tanh_mlp, session_config(p, kBatch));
    MeanVar out;
    s.propagate(in64, out);
    pr.metric("core.weight_mb." + pn,
              static_cast<double>(s.weight_bytes()) / (1 << 20), "MiB");
    pr.metric("core.arena_kb." + pn,
              static_cast<double>(s.arena_bytes()) / (1 << 10), "KiB");
  }

  // tensor: the f64 GEMM MCDrop runs on.
  {
    const Matrix& w = relu_mlp.layer(kProbeLayer).weight;
    const Matrix a1 = layer_input(relu_mlp, kProbeLayer, in1).mean;
    const Matrix a64 = layer_input(relu_mlp, kProbeLayer, in64).mean;
    Matrix c1(1, w.cols());
    Matrix c64(kBatch, w.cols());
    const double wbytes = static_cast<double>(w.size() * sizeof(double));
    pr.row("tensor.gemm.f64.b1", 2.0 * static_cast<double>(w.size()), wbytes,
           [&] { apds::gemm(a1, w, c1); });
    pr.metric("tensor.gemm.f64.b1.gbps", gbps(pr.last()), "GB/s");
    pr.row("tensor.gemm.f64.b64", 2.0 * kBatch * static_cast<double>(w.size()),
           wbytes, [&] { apds::gemm(a64, w, c64); });
    pr.metric("tensor.gemm.f64.b64.gflops", gflops(pr.last()), "GFLOP/s");
  }

  // nn + uncertainty: the MCDrop-50 comparator and its parts.
  {
    Rng pass_rng(derive_seed(fx.seed(), 501));
    Matrix y;
    // A batch-1 pass is a GEMV per layer: it streams every f64 weight once.
    const double pass_bytes =
        static_cast<double>(relu_mlp.num_params() * sizeof(double));
    pr.metric("nn.forward_stochastic.b1.ms",
              pr.row("nn.forward_stochastic.b1", apds::flops_forward(relu_mlp),
                     pass_bytes,
                     [&] { y = relu_mlp.forward_stochastic(x1, pass_rng); }),
              "ms");
    const apds::McDrop mc(relu_mlp, 50, derive_seed(fx.seed(), 502));
    apds::PredictiveGaussian pred;
    pr.metric("uncertainty.mcdrop.predict.ms",
              pr.row("uncertainty.mcdrop.predict",
                     apds::flops_mcdrop(relu_mlp, 50), 50.0 * pass_bytes,
                     [&] { pred = mc.predict_regression(x1); }),
              "ms");
    pr.metric("uncertainty.mcdrop.allocs_per_req",
              allocs_per_call([&] { pred = mc.predict_regression(x1); }),
              "count");
    Rng sample_rng(derive_seed(fx.seed(), 503));
    const std::vector<Matrix> samples =
        apds::mcdrop_collect(relu_mlp, x1, 50, sample_rng);
    pr.metric("uncertainty.mcdrop.summarize.us",
              pr.row("uncertainty.mcdrop.summarize", 0.0, 0.0, [&] {
                pred = apds::mcdrop_regression_from_samples(samples, 50);
              }) * 1e3,
              "us");
  }

  // conv: the section VI extensions, layer by layer.
  {
    const apds::ConvNet net = apds::load_conv_net(fx.conv_path());
    const apds::ConvApDeepSense apd(net);
    Rng window_rng(derive_seed(fx.seed(), 504));
    const Matrix x = imu_window(window_rng);
    MeanVar out;
    const double prop = pr.row("conv.propagate",
                               apds::flops_conv_apdeepsense(net), 0.0,
                               [&] { out = apd.propagate(x); });
    pr.metric("conv.propagate.ms", prop, "ms");
    pr.metric("conv.allocs_per_req",
              allocs_per_call([&] { out = apd.propagate(x); }), "count");
    MeanVar h = MeanVar::point(x);
    double layers = 0.0;
    for (std::size_t l = 0; l < net.num_conv_layers(); ++l) {
      const apds::Conv1dLayer& layer = net.conv(l);
      const apds::PiecewiseLinear pwl =
          apds::PiecewiseLinear::for_activation(layer.act);
      const std::size_t in_len = net.layer_in_len(l);
      MeanVar next;
      const double ms = pr.row("conv.moment_conv1d.l" + std::to_string(l), 0.0,
                               0.0, [&] {
                                 next = apds::moment_conv1d(layer, h, in_len, pwl);
                               });
      pr.metric("conv.moment_conv1d.l" + std::to_string(l) + ".ms", ms, "ms");
      layers += ms;
      h = std::move(next);
    }
    pr.metric("conv.head.ms", prop - layers, "ms");
    const apds::RnnCell cell = fx.rnn_cell();
    const apds::PiecewiseLinear pwl =
        apds::PiecewiseLinear::for_activation(cell.act);
    pr.metric("conv.moment_rnn.ms", pr.row("conv.moment_rnn", 0.0, 0.0, [&] {
      out = apds::moment_rnn(cell, x, kRnnSteps, pwl);
    }), "ms");
    pr.metric("conv.rnn_allocs_per_req", allocs_per_call([&] {
      out = apds::moment_rnn(cell, x, kRnnSteps, pwl);
    }), "count");
  }

  pr.metric("machine.stream_gbps", stream_triad_gbps(quick ? 2 : 5), "GB/s");
  return pr.take();
}

}  // namespace e2e
