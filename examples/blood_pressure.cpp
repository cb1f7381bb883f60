// Cuff-less blood-pressure monitoring (the paper's BPEst task): regress a
// 2-second arterial-pressure waveform from a fingertip PPG waveform and
// report systolic/diastolic estimates with confidence intervals. A clinical
// consumer of this output needs the interval at least as much as the value.
// Takes only the shared flags (obs/run_options.h); `--obs-dir <dir>` writes
// the run's trace and flight records there.
#include <algorithm>
#include <cmath>
#include <iostream>
#include <utility>

#include "data/bpest.h"
#include "data/scaler.h"
#include "nn/loss.h"
#include "nn/trainer.h"
#include "obs/flight_recorder.h"
#include "obs/run_options.h"
#include "uncertainty/apd_estimator.h"

using namespace apds;

int main(int argc, char** argv) {
  obs::ObsOptions options = obs::parse_obs_flags(argc, argv);
  if (!obs::only_obs_flags(argc, argv)) return 2;
  obs::ObsSession obs_session(std::move(options));
  Rng rng(5);

  Dataset data = generate_bpest(2500, rng);
  const DataSplit split = split_dataset(data, 0.1, 0.05, rng);
  const StandardScaler xs = StandardScaler::fit(split.train.x);
  const StandardScaler ys = StandardScaler::fit(split.train.y);

  MlpSpec spec;
  spec.dims = {250, 128, 128, 250};
  spec.hidden_act = Activation::kRelu;
  spec.hidden_keep_prob = 0.9;
  Mlp mlp = Mlp::make(spec, rng);
  TrainConfig cfg;
  cfg.epochs = 12;
  cfg.learning_rate = 2e-3;
  train_mlp(mlp, xs.transform(split.train.x), ys.transform(split.train.y),
            xs.transform(split.val.x), ys.transform(split.val.y), MseLoss(),
            cfg, rng);

  const ApdEstimator apd(mlp);

  // Analyze a few held-out beats.
  // The batched pass over the held-out beats is one request: spans, the
  // latency exemplar and the flight-recorder record attribute to its id.
  PredictiveGaussian pred = [&] {
    obs::RequestScope request;
    const Matrix x_scaled = xs.transform(split.test.x);
    request.set_input_stats(x_scaled.flat());
    PredictiveGaussian p = apd.predict_regression(x_scaled);
    request.set_prediction(p.mean(0, 0), p.var(0, 0));
    return p;
  }();
  pred.mean = ys.inverse_transform(pred.mean);
  pred.var = ys.inverse_transform_variance(pred.var);

  std::cout << "Cuff-less BP estimates from PPG (2 s windows, 250 samples):\n";
  std::cout << "window   SBP est (true)        DBP est (true)\n";
  const std::size_t shown = std::min<std::size_t>(6, split.test.size());
  for (std::size_t i = 0; i < shown; ++i) {
    // Systolic = waveform max, diastolic = waveform min. The interval on
    // the extremum is taken from the per-sample variance at the argmax /
    // argmin position (a conservative per-point interval).
    std::size_t arg_hi = 0;
    std::size_t arg_lo = 0;
    for (std::size_t t = 1; t < 250; ++t) {
      if (pred.mean(i, t) > pred.mean(i, arg_hi)) arg_hi = t;
      if (pred.mean(i, t) < pred.mean(i, arg_lo)) arg_lo = t;
    }
    double true_sbp = split.test.y(i, 0);
    double true_dbp = split.test.y(i, 0);
    for (std::size_t t = 0; t < 250; ++t) {
      true_sbp = std::max(true_sbp, split.test.y(i, t));
      true_dbp = std::min(true_dbp, split.test.y(i, t));
    }
    const double sbp_sd = std::sqrt(pred.var(i, arg_hi));
    const double dbp_sd = std::sqrt(pred.var(i, arg_lo));
    std::printf(
        "%4zu   %5.1f +-%4.1f (%5.1f)   %5.1f +-%4.1f (%5.1f)  mmHg\n", i,
        pred.mean(i, arg_hi), 2.0 * sbp_sd, true_sbp, pred.mean(i, arg_lo),
        2.0 * dbp_sd, true_dbp);
  }

  std::cout << "\nIntervals are 2-sigma from a single ApDeepSense pass over "
               "the dropout-trained regressor — suitable for a wearable "
               "that cannot afford 50 sampling passes per heartbeat.\n";
  const auto session = apd.session(global_precision());
  std::cout << "(session footprint: " << session->memory_bytes()
            << " B weights+arena; steady-state passes allocate nothing)\n";
  return 0;
}
