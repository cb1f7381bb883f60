// Environment monitoring scenario (the paper's GasSen task): a 16-sensor
// array estimates an Ethylene + CO mixture. Safety logic must not act on a
// point estimate alone — this example raises an alarm only when the UPPER
// confidence bound of the CO estimate crosses a threshold, and flags
// low-confidence readings for re-measurement instead of silently guessing.
// Takes only the shared flags (obs/run_options.h); `--obs-dir <dir>` writes
// the run's trace and flight records there.
#include <cmath>
#include <iostream>
#include <utility>

#include "data/gassen.h"
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
  Rng rng(42);

  // Train a compact gas-inversion model on synthetic sensor data.
  Dataset data = generate_gassen(4000, rng);
  const DataSplit split = split_dataset(data, 0.1, 0.1, rng);
  const StandardScaler xs = StandardScaler::fit(split.train.x);
  const StandardScaler ys = StandardScaler::fit(split.train.y);

  MlpSpec spec;
  spec.dims = {16, 96, 96, 2};
  spec.hidden_act = Activation::kRelu;
  spec.hidden_keep_prob = 0.9;
  Mlp mlp = Mlp::make(spec, rng);
  TrainConfig cfg;
  cfg.epochs = 20;
  cfg.learning_rate = 2e-3;
  train_mlp(mlp, xs.transform(split.train.x), ys.transform(split.train.y),
            xs.transform(split.val.x), ys.transform(split.val.y), MseLoss(),
            cfg, rng);

  const ApdEstimator apd(mlp);

  // Stream the held-out readings through the uncertainty-aware alarm.
  constexpr double kCoAlarmPpm = 400.0;
  constexpr double kMaxStddevPpm = 120.0;  // re-measure above this
  std::size_t alarms = 0;
  std::size_t remeasure = 0;
  std::size_t true_exceedances = 0;
  std::size_t caught = 0;

  // The batched pass over the held-out readings is one request: spans, the
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

  for (std::size_t i = 0; i < split.test.size(); ++i) {
    const double co_mean = pred.mean(i, 1);
    const double co_sd = std::sqrt(pred.var(i, 1));
    const double upper = co_mean + 2.0 * co_sd;
    const bool truly_high = split.test.y(i, 1) > kCoAlarmPpm;
    if (truly_high) ++true_exceedances;

    if (co_sd > kMaxStddevPpm) {
      ++remeasure;  // too uncertain to decide — ask for another sample
    } else if (upper > kCoAlarmPpm) {
      ++alarms;
      if (truly_high) ++caught;
    }
  }

  std::cout << "Gas monitoring on " << split.test.size()
            << " held-out readings (CO alarm at " << kCoAlarmPpm
            << " ppm):\n"
            << "  alarms raised:          " << alarms << "\n"
            << "  true exceedances:       " << true_exceedances << "\n"
            << "  exceedances caught:     " << caught << "\n"
            << "  deferred (re-measure):  " << remeasure << "\n";
  std::cout << "\nThe 2-sigma upper bound comes from one analytic "
               "ApDeepSense pass per reading — cheap enough to run on the "
               "sensor node itself.\n";
  const auto session = apd.session(global_precision());
  std::cout << "(session footprint: " << session->memory_bytes()
            << " B weights+arena; steady-state passes allocate nothing)\n";
  return 0;
}
