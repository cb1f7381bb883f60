// Command-line batch prediction: load a saved apds model and a CSV of
// inputs, write predictions with uncertainty to another CSV — the
// deployment-side workflow of the paper (pre-trained network, cheap
// uncertainty at inference).
//
//   predict_csv <model.apds> <inputs.csv> <outputs.csv> [--classify]
//               [--labels labels.csv] [--obs-dir dir] [--log-level lvl]
//
// `--labels <csv>` scores the predictions against ground-truth targets
// (regression only): the run reports the Gaussian NLL and the empirical
// coverage of the 50/90/95% central intervals (metrics/).
//
// Run with no arguments for a self-contained demo: it trains a small model
// on the synthetic gas-sensing task, saves it, exports sample inputs and
// labels, and then runs itself end-to-end with calibration scoring.
#include <algorithm>
#include <cmath>
#include <iostream>
#include <string>
#include <vector>

#include "data/csv.h"
#include "data/gassen.h"
#include "data/scaler.h"
#include "metrics/calibration.h"
#include "metrics/regression_metrics.h"
#include "nn/loss.h"
#include "nn/model_io.h"
#include "nn/trainer.h"
#include "obs/flight_recorder.h"
#include "obs/run_options.h"
#include "uncertainty/apd_estimator.h"

using namespace apds;

namespace {

int predict(const std::string& model_path, const std::string& in_csv,
            const std::string& out_csv, bool classify,
            const std::string& labels_csv) {
  const Mlp mlp = load_model(model_path);
  const Matrix inputs = read_csv(in_csv);
  if (inputs.cols() != mlp.input_dim()) {
    std::cerr << "input CSV has " << inputs.cols() << " columns, model wants "
              << mlp.input_dim() << "\n";
    return 1;
  }
  const ApdEstimator apd(mlp);

  if (classify) {
    if (!labels_csv.empty()) {
      std::cerr << "--labels calibration scoring supports regression "
                   "models only\n";
      return 1;
    }
    // The whole batch is one request: spans, the latency exemplar and the
    // flight-recorder record all attribute to its id.
    const PredictiveCategorical pred = [&] {
      obs::RequestScope request;
      request.set_input_stats(inputs.flat());
      PredictiveCategorical p = apd.predict_classification(inputs);
      double top = 0.0;
      for (double v : p.probs.row(0)) top = std::max(top, v);
      request.set_prediction(top, top * (1.0 - top));
      return p;
    }();
    std::vector<std::string> header;
    for (std::size_t c = 0; c < pred.probs.cols(); ++c)
      header.push_back("p_class" + std::to_string(c));
    write_csv(out_csv, pred.probs, header);
    std::cout << "wrote " << inputs.rows() << " predictions to " << out_csv
              << "\n";
    return 0;
  }

  // One request per batched pass (see the classification branch above).
  const PredictiveGaussian pred = [&] {
    obs::RequestScope request;
    request.set_input_stats(inputs.flat());
    PredictiveGaussian p = apd.predict_regression(inputs);
    request.set_prediction(p.mean(0, 0), p.var(0, 0));
    return p;
  }();
  Matrix out(pred.mean.rows(), pred.mean.cols() * 2);
  std::vector<std::string> header;
  for (std::size_t c = 0; c < pred.mean.cols(); ++c) {
    header.push_back("mean" + std::to_string(c));
    header.push_back("stddev" + std::to_string(c));
  }
  for (std::size_t r = 0; r < out.rows(); ++r)
    for (std::size_t c = 0; c < pred.mean.cols(); ++c) {
      out(r, 2 * c) = pred.mean(r, c);
      out(r, 2 * c + 1) = std::sqrt(pred.var(r, c));
    }
  write_csv(out_csv, out, header);
  std::cout << "wrote " << inputs.rows() << " predictions to " << out_csv
            << "\n";
  {
    // Footprint of the planned-arena session the batch ran through — what
    // the model keeps resident while it serves.
    const auto session = apd.session(global_precision());
    std::cout << "session memory: " << session->weight_bytes()
              << " B weights + " << session->arena_bytes()
              << " B arena (batch " << inputs.rows() << ")\n";
  }

  if (!labels_csv.empty()) {
    const Matrix labels = read_csv(labels_csv);
    if (labels.rows() != pred.mean.rows() ||
        labels.cols() != pred.mean.cols()) {
      std::cerr << "labels CSV is " << labels.rows() << "x" << labels.cols()
                << ", predictions are " << pred.mean.rows() << "x"
                << pred.mean.cols() << "\n";
      return 1;
    }
    constexpr double kLevels[] = {0.5, 0.9, 0.95};
    std::cout << "calibration over " << labels.size()
              << " labelled outputs: NLL "
              << evaluate_regression(pred, labels).nll << ", coverage";
    for (const auto& c : calibration_curve(pred, labels, kLevels))
      std::cout << " " << c.nominal << "->" << c.empirical;
    std::cout << "\n";
  }
  return 0;
}

int demo() {
  std::cout << "No arguments: running the self-contained demo.\n";
  Rng rng(1);
  Dataset data = generate_gassen(1500, rng);
  const DataSplit split = split_dataset(data, 0.0, 0.1, rng);
  const StandardScaler xs = StandardScaler::fit(split.train.x);
  const StandardScaler ys = StandardScaler::fit(split.train.y);

  MlpSpec spec;
  spec.dims = {16, 64, 64, 2};
  spec.hidden_keep_prob = 0.9;
  Mlp mlp = Mlp::make(spec, rng);
  TrainConfig cfg;
  cfg.epochs = 10;
  train_mlp(mlp, xs.transform(split.train.x), ys.transform(split.train.y),
            Matrix(), Matrix(), MseLoss(), cfg, rng);

  save_model(mlp, "demo_gas_model.apds");
  write_csv("demo_gas_inputs.csv", xs.transform(split.test.x));
  write_csv("demo_gas_labels.csv", ys.transform(split.test.y));
  std::cout << "saved demo_gas_model.apds, demo_gas_inputs.csv and "
               "demo_gas_labels.csv\n";
  return predict("demo_gas_model.apds", "demo_gas_inputs.csv",
                 "demo_gas_predictions.csv", /*classify=*/false,
                 "demo_gas_labels.csv");
}

}  // namespace

int main(int argc, char** argv) {
  try {
    obs::ObsSession obs_session(argc, argv);

    bool classify = false;
    std::string labels_csv;
    std::vector<std::string> positional;
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--classify") {
        classify = true;
      } else if (arg == "--labels") {
        if (i + 1 >= argc) throw InvalidArgument("--labels: missing value");
        labels_csv = argv[++i];
      } else {
        positional.push_back(arg);
      }
    }

    if (positional.empty() && !classify && labels_csv.empty()) return demo();
    if (positional.size() != 3) {
      std::cerr << "usage: " << argv[0]
                << " <model.apds> <inputs.csv> <outputs.csv> [--classify]"
                   " [--labels labels.csv]\n"
                << obs::obs_flags_help() << "\n";
      return 2;
    }
    return predict(positional[0], positional[1], positional[2], classify,
                   labels_csv);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
