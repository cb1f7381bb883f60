// Quickstart: train a small dropout network on a noisy 1-D regression task,
// then get calibrated predictions + uncertainty from a single analytic
// ApDeepSense pass — no sampling, no retraining.
//
// Build & run:   cmake -B build -G Ninja && cmake --build build
//                ./build/examples/quickstart
//
// Pass `--obs-dir obs` to write the run's observability artifacts into
// obs/: a Chrome-trace of the whole run (training epochs, per-layer
// inference spans, request-scoped span trees), the counters and the
// request-latency histogram with its exemplars, the flight recorder's
// per-request ring and the sampling profile. Read them with
// `tools/apds_report obs` — see docs/OBSERVABILITY.md. The example takes no
// other arguments.
#include <cmath>
#include <iostream>
#include <utility>

#include "common/rng.h"
#include "nn/loss.h"
#include "nn/trainer.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/run_options.h"
#include "platform/cost_model.h"
#include "platform/edison.h"
#include "uncertainty/apd_estimator.h"
#include "uncertainty/mcdrop.h"

using namespace apds;

int main(int argc, char** argv) {
  obs::ObsOptions options = obs::parse_obs_flags(argc, argv);
  if (!obs::only_obs_flags(argc, argv)) return 2;
  obs::ObsSession obs_session(std::move(options));
  Rng rng(7);

  // 1. A toy sensor problem: y = sin(3x) + heteroscedastic noise.
  const std::size_t n = 2000;
  Matrix x(n, 1);
  Matrix y(n, 1);
  for (std::size_t i = 0; i < n; ++i) {
    x(i, 0) = rng.uniform(-1.0, 1.0);
    y(i, 0) = std::sin(3.0 * x(i, 0)) + rng.normal(0.0, 0.1);
  }

  // 2. Train an ordinary dropout MLP — exactly what you would deploy.
  MlpSpec spec;
  spec.dims = {1, 64, 64, 1};
  spec.hidden_act = Activation::kRelu;
  spec.hidden_keep_prob = 0.9;  // dropout keep-probability
  Mlp mlp = Mlp::make(spec, rng);

  TrainConfig cfg;
  cfg.epochs = 30;
  cfg.learning_rate = 3e-3;
  train_mlp(mlp, x, y, Matrix(), Matrix(), MseLoss(), cfg, rng);

  // 3. Wrap the *pre-trained* network in ApDeepSense. One line; no
  //    retraining, no structural changes.
  const ApdEstimator apd(mlp);

  // 4. Query predictions with uncertainty — a single analytic pass.
  std::cout << "   x      prediction    +- 2 stddev     (true sin(3x))\n";
  for (double q : {-0.9, -0.5, 0.0, 0.5, 0.9}) {
    Matrix input(1, 1);
    input(0, 0) = q;
    const PredictiveGaussian pred = apd.predict_regression(input);
    const double sd = std::sqrt(pred.var(0, 0));
    std::printf("%6.2f   %10.4f    +-%8.4f     (%7.4f)\n", q,
                pred.mean(0, 0), 2.0 * sd, std::sin(3.0 * q));
  }

  // 5. Serve a held-out stream one request at a time, the way a
  //    deployment would; request latencies land in the
  //    `request.latency_ms` histogram (metrics.json).
  {
    for (std::size_t i = 0; i < 200; ++i) {
      Matrix input(1, 1);
      input(0, 0) = rng.uniform(-1.0, 1.0);
      // One RequestScope per inference: gives the request an id that spans,
      // latency exemplars and the flight-recorder record all attribute to.
      obs::RequestScope request;
      request.set_input_stats(input.flat());
      const PredictiveGaussian p = apd.predict_regression(input);
      request.set_prediction(p.mean(0, 0), p.var(0, 0));
    }
    // p50 is reconstructed from the histogram's 32 log-spaced buckets
    // (1 us-100 ms, ~1.43x wide each); the exact streamed mean sits next
    // to it.
    const LatencyHistogram& latency =
        MetricsRegistry::instance().histogram("request.latency_ms");
    std::cout << "\nServed 200 held-out inferences:"
              << "\n  latency p50 " << latency.p50_ms() << " ms (mean "
              << latency.stats().mean() << " ms), modelled energy/inference "
              << EdisonModel{}.energy_mj(flops_apdeepsense(mlp, 7))
              << " mJ\n";
  }

  // 6. Under the hood every predict above ran through one shared
  //    InferenceSession: weights packed once at load, every intermediate
  //    buffer pre-planned into a per-thread arena, zero heap allocations
  //    per steady-state pass. Inspect its footprint:
  {
    const auto session = apd.session(global_precision());
    std::cout << "\nInferenceSession #" << session->id() << " ("
              << precision_name(session->precision()) << "): "
              << session->propagate_count() << " propagates, weights "
              << session->weight_bytes() << " B, arena "
              << session->arena_bytes() << " B live ("
              << session->planned_bytes(1) << " B planned per thread at "
              << "batch 1)\n";
  }

  // 7. Compare with the sampling baseline at equal fidelity: MCDrop-50
  //    needs 50 forward passes for what ApDeepSense got in ~2.
  McDrop mc(mlp, 50, /*seed=*/1);
  Matrix probe(1, 1);
  probe(0, 0) = 0.25;
  const auto apd_pred = apd.predict_regression(probe);
  const auto mc_pred = mc.predict_regression(probe);
  std::cout << "\nAt x = 0.25:\n"
            << "  ApDeepSense (1 analytic pass): mean " << apd_pred.mean(0, 0)
            << ", stddev " << std::sqrt(apd_pred.var(0, 0)) << "\n"
            << "  MCDrop-50  (50 network runs) : mean " << mc_pred.mean(0, 0)
            << ", stddev " << std::sqrt(mc_pred.var(0, 0)) << "\n";
  return 0;
}
