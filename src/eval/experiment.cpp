#include "eval/experiment.h"

#include <algorithm>
#include <ostream>

#include "common/precision.h"
#include "common/string_util.h"
#include "eval/table_printer.h"
#include "metrics/classification_metrics.h"
#include "metrics/regression_metrics.h"
#include "obs/flight_recorder.h"
#include "platform/profiler.h"
#include "uncertainty/apd_estimator.h"
#include "uncertainty/mcdrop.h"
#include "uncertainty/rdeepsense.h"

namespace apds {

namespace {

std::string dnn_name(Activation act) {
  return act == Activation::kRelu ? "DNN-ReLU" : "DNN-Tanh";
}

/// Map a scaled-space Gaussian predictive back to natural units.
PredictiveGaussian unscale(const PredictiveGaussian& pred,
                           const StandardScaler& y_scaler) {
  PredictiveGaussian out;
  out.mean = y_scaler.inverse_transform(pred.mean);
  out.var = y_scaler.inverse_transform_variance(pred.var);
  return out;
}

constexpr Activation kActs[] = {Activation::kRelu, Activation::kTanh};

}  // namespace

std::vector<ModelPerfRow> run_model_perf(ModelZoo& zoo, TaskId task,
                                         const ExperimentOptions& opt) {
  const TaskData& td = zoo.data(task);
  std::vector<ModelPerfRow> rows;

  const std::size_t k_max =
      *std::max_element(opt.mcdrop_ks.begin(), opt.mcdrop_ks.end());

  for (Activation act : kActs) {
    const Mlp& mlp = zoo.dropout_model(task, act);
    const Mlp& rds_mlp = zoo.rdeepsense_model(task, act);
    const std::string prefix = dnn_name(act) + "-";

    const ApdEstimator apd(mlp, ApDeepSenseConfig{opt.saturating_pieces});
    const RDeepSense rds(rds_mlp, td.kind, td.output_dim);

    Rng eval_rng(opt.eval_seed ^ (static_cast<std::uint64_t>(act) << 8) ^
                 static_cast<std::uint64_t>(task));
    const auto samples = mcdrop_collect(mlp, td.x_test, k_max, eval_rng);

    if (td.kind == TaskKind::kRegression) {
      auto add = [&](const std::string& name,
                     const PredictiveGaussian& scaled_pred) {
        const PredictiveGaussian pred = unscale(scaled_pred, td.y_scaler);
        const RegressionMetrics m =
            evaluate_regression(pred, td.y_test_natural);
        rows.push_back({prefix + name, m.mae, m.nll});
      };

      add("ApDeepSense", apd.predict_regression(td.x_test));
      for (std::size_t k : opt.mcdrop_ks)
        add("MCDrop-" + std::to_string(k),
            mcdrop_regression_from_samples(samples, k));
      add("RDeepSense", rds.predict_regression(td.x_test));
    } else {
      auto add = [&](const std::string& name,
                     const PredictiveCategorical& pred) {
        const ClassificationMetrics m =
            evaluate_classification(pred, td.test_labels);
        rows.push_back({prefix + name, m.acc * 100.0, m.nll});
      };

      add("ApDeepSense", apd.predict_classification(td.x_test));
      for (std::size_t k : opt.mcdrop_ks)
        add("MCDrop-" + std::to_string(k),
            mcdrop_classification_from_samples(samples, k));
      add("RDeepSense", rds.predict_classification(td.x_test));
    }
  }
  return rows;
}

std::vector<SystemRow> run_system_perf(ModelZoo& zoo, TaskId task,
                                       const ExperimentOptions& opt) {
  const TaskData& td = zoo.data(task);
  const Matrix one_input = td.x_test.row_copy(0);
  std::vector<SystemRow> rows;

  for (Activation act : kActs) {
    const Mlp& mlp = zoo.dropout_model(task, act);
    const std::string prefix = dnn_name(act) + "-";

    auto add = [&](const std::string& name, double flops,
                   const std::function<void()>& host_fn) {
      SystemRow row;
      row.config = prefix + name;
      row.flops = flops;
      row.edison_ms = opt.edison.time_ms(flops);
      row.edison_mj = opt.edison.energy_mj(flops);
      if (opt.measure_host && host_fn) row.host_ms = measure(host_fn).median_ms;
      rows.push_back(row);
    };

    const ApdEstimator apd(mlp, ApDeepSenseConfig{opt.saturating_pieces});
    const double apd_flops =
        flops_apdeepsense(mlp, opt.saturating_pieces, opt.cost);
    const auto apd_once = [&] {
      if (td.kind == TaskKind::kRegression)
        (void)apd.predict_regression(one_input);
      else
        (void)apd.predict_classification(one_input);
    };
    add("ApDeepSense", apd_flops, apd_once);

    // Serve the deployment configuration (ApDeepSense) as a stream of
    // requests through the estimator's own session. Each iteration is one
    // request: the RequestScope gives it an id (so spans, exemplars and the
    // flight-recorder record attribute to it) and feeds its latency into
    // the `request.latency_ms` histogram.
    if (opt.measure_host) {
      const std::shared_ptr<InferenceSession> session =
          apd.session(global_precision());
      const MeanVar serve_in = MeanVar::point(one_input);
      MeanVar serve_out;  // reused: a warmed-up request allocates nothing
      for (int i = 0; i < 20; ++i) {
        obs::RequestScope request;
        request.set_input_stats(one_input.flat());
        session->propagate(serve_in, serve_out);
        if (td.kind == TaskKind::kRegression) {
          request.set_prediction(serve_out.mean(0, 0), serve_out.var(0, 0));
        } else {
          const auto probs = softmax_meanfield(serve_out.row(0));
          double top = 0.0;
          for (double p : probs) top = std::max(top, p);
          // Categorical head: report the argmax probability and its
          // Bernoulli variance as the record's prediction summary.
          request.set_prediction(top, top * (1.0 - top));
        }
      }
    }

    for (std::size_t k : opt.mcdrop_ks) {
      McDrop mc(mlp, k, opt.eval_seed);
      add("MCDrop-" + std::to_string(k), flops_mcdrop(mlp, k, opt.cost), [&] {
        if (td.kind == TaskKind::kRegression)
          (void)mc.predict_regression(one_input);
        else
          (void)mc.predict_classification(one_input);
      });
    }
  }
  return rows;
}

std::vector<TradeoffSeries> run_tradeoff(ModelZoo& zoo, TaskId task,
                                         const ExperimentOptions& opt) {
  // NLL comes from the full model-perf run; energy from the cost model.
  ExperimentOptions cheap = opt;
  cheap.measure_host = false;
  const auto perf = run_model_perf(zoo, task, opt);
  const auto sys = run_system_perf(zoo, task, cheap);

  std::vector<TradeoffSeries> out;
  for (Activation act : kActs) {
    TradeoffSeries series;
    series.act = act;
    const std::string prefix = dnn_name(act) + "-";
    for (const auto& p : perf) {
      if (p.config.rfind(prefix, 0) != 0) continue;
      if (p.config.find("RDeepSense") != std::string::npos)
        continue;  // the paper's scatter shows ApDeepSense vs MCDrop only
      for (const auto& s : sys) {
        if (s.config == p.config) {
          series.points.push_back({p.config, s.edison_mj, p.nll});
          break;
        }
      }
    }
    out.push_back(std::move(series));
  }
  return out;
}

void print_model_perf(std::ostream& os, TaskId task,
                      std::span<const ModelPerfRow> rows, TaskKind kind) {
  const char* primary =
      kind == TaskKind::kRegression ? "MAE" : "ACC (%)";
  os << "Model estimation performance — task " << task_name(task) << "\n";
  TablePrinter table({"config", primary, "NLL"});
  for (const auto& r : rows)
    table.add_row({r.config, format_double(r.primary, 2),
                   format_double(r.nll, 2)});
  table.print(os);
}

void print_system_perf(std::ostream& os, TaskId task,
                       std::span<const SystemRow> rows) {
  os << "System performance — task " << task_name(task)
     << " (modelled Intel Edison; host times measured on this machine)\n";
  TablePrinter table({"config", "MFLOPs", "Edison time (ms)",
                      "Edison energy (mJ)", "host time (ms)"});
  for (const auto& r : rows)
    table.add_row({r.config, format_double(r.flops / 1e6, 2),
                   format_double(r.edison_ms, 1),
                   format_double(r.edison_mj, 1),
                   r.host_ms > 0.0 ? format_double(r.host_ms, 2) : "-"});
  table.print(os);
}

void print_tradeoff(std::ostream& os, TaskId task,
                    std::span<const TradeoffSeries> series) {
  os << "Energy vs NLL tradeoff — task " << task_name(task)
     << " (lower-left is better)\n";
  for (const auto& s : series) {
    TablePrinter table({"config", "Edison energy (mJ)", "NLL"});
    for (const auto& p : s.points)
      table.add_row({p.config, format_double(p.energy_mj, 1),
                     format_double(p.nll, 2)});
    table.print(os);
    os << "\n";
  }
}

Savings apdeepsense_savings(ModelZoo& zoo, TaskId task, Activation act,
                            const ExperimentOptions& opt) {
  const Mlp& mlp = zoo.dropout_model(task, act);
  const std::size_t k_max =
      *std::max_element(opt.mcdrop_ks.begin(), opt.mcdrop_ks.end());
  const double apd = flops_apdeepsense(mlp, opt.saturating_pieces, opt.cost);
  const double mc = flops_mcdrop(mlp, k_max, opt.cost);
  Savings s;
  // Time and energy are both linear in flops under the Edison model, so the
  // fractions coincide; reported separately because the paper reports both.
  s.time_fraction = 1.0 - apd / mc;
  s.energy_fraction = 1.0 - apd / mc;
  return s;
}

}  // namespace apds
