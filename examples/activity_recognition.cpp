// Human-activity recognition with selective prediction (the paper's HHAR
// task): the model is deployed to a NEW user it never saw in training.
// Uncertainty-aware classification lets it abstain on ambiguous windows —
// accuracy on the predictions it does commit to is much higher than the
// blanket accuracy, which is exactly why IoT inference needs uncertainty.
#include <algorithm>
#include <cmath>
#include <iostream>
#include <utility>

#include "data/hhar.h"
#include "data/scaler.h"
#include "metrics/classification_metrics.h"
#include "nn/loss.h"
#include "nn/trainer.h"
#include "obs/flight_recorder.h"
#include "obs/run_options.h"
#include "tensor/ops.h"
#include "uncertainty/apd_estimator.h"

using namespace apds;

namespace {
const char* kActivityNames[] = {"biking",       "sitting",
                                "standing",     "walking",
                                "climb-up",     "climb-down"};
}

int main(int argc, char** argv) {
  obs::ObsOptions options = obs::parse_obs_flags(argc, argv);
  if (!obs::only_obs_flags(argc, argv)) return 2;
  obs::ObsSession obs_session(std::move(options));
  Rng rng(11);

  // Leave-one-user-out data: train on users 0..7, deploy on user 8.
  const HharSplit split = generate_hhar(6000, 800, /*test_user=*/8, rng);
  const StandardScaler xs = StandardScaler::fit(split.train.x);

  MlpSpec spec;
  spec.dims = {64, 128, 128, 6};
  spec.hidden_act = Activation::kRelu;
  spec.hidden_keep_prob = 0.9;
  Mlp mlp = Mlp::make(spec, rng);
  TrainConfig cfg;
  cfg.epochs = 15;
  cfg.learning_rate = 2e-3;
  train_mlp(mlp, xs.transform(split.train.x), split.train.y, Matrix(),
            Matrix(), SoftmaxCrossEntropyLoss(), cfg, rng);

  const ApdEstimator apd(mlp);
  // The batched pass over the held-out windows is one request: spans, the
  // latency exemplar and the flight-recorder record attribute to its id.
  const PredictiveCategorical pred = [&] {
    obs::RequestScope request;
    const Matrix x_scaled = xs.transform(split.test.x);
    request.set_input_stats(x_scaled.flat());
    PredictiveCategorical p = apd.predict_classification(x_scaled);
    double top = 0.0;
    for (double v : p.probs.row(0)) top = std::max(top, v);
    request.set_prediction(top, top * (1.0 - top));
    return p;
  }();
  const auto labels = onehot_to_labels(split.test.y);

  // Selective prediction: commit only when the top probability is high.
  constexpr double kConfidenceGate = 0.7;
  std::size_t committed = 0;
  std::size_t committed_correct = 0;
  std::size_t abstained = 0;
  std::vector<std::size_t> confusion(6, 0);
  for (std::size_t i = 0; i < labels.size(); ++i) {
    const std::size_t top = argmax_row(pred.probs, i);
    const double conf = pred.probs(i, top);
    if (conf < kConfidenceGate) {
      ++abstained;
      continue;
    }
    ++committed;
    if (top == labels[i])
      ++committed_correct;
    else
      ++confusion[top];
  }

  const double blanket = accuracy(pred, labels);
  std::cout << "Activity recognition on an unseen user (" << labels.size()
            << " windows):\n"
            << "  blanket accuracy:               "
            << blanket * 100.0 << "%\n"
            << "  committed (confidence >= " << kConfidenceGate
            << "): " << committed << " windows\n"
            << "  accuracy when committed:        "
            << (committed > 0 ? 100.0 * static_cast<double>(committed_correct) /
                                    static_cast<double>(committed)
                              : 0.0)
            << "%\n"
            << "  abstained (hand to user/app):   " << abstained << "\n";

  std::cout << "\nMost common wrong committed guesses by class:\n";
  for (std::size_t c = 0; c < 6; ++c)
    if (confusion[c] > 0)
      std::cout << "  " << kActivityNames[c] << ": " << confusion[c] << "\n";
  std::cout << "\nConfidence comes from the mean-field softmax over the "
               "Gaussian logits of one ApDeepSense pass.\n";
  const auto session = apd.session(global_precision());
  std::cout << "(session footprint: " << session->memory_bytes()
            << " B weights+arena; steady-state passes allocate nothing)\n";
  return 0;
}
