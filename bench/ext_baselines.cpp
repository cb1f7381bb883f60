// Extension experiment (ours): one table placing ApDeepSense in the wider
// uncertainty-estimation design space — the paper's comparators (MCDrop-k,
// RDeepSense) plus a deterministic point baseline with validation-
// calibrated variance. Each row lists the quality metrics next to the
// modelled Edison cost and what it demands of the deployment (extra
// trainings / passes per inference).
#include <iostream>

#include "bench_common.h"
#include "metrics/regression_metrics.h"
#include "uncertainty/apd_estimator.h"
#include "uncertainty/mcdrop.h"
#include "uncertainty/point_estimator.h"
#include "uncertainty/rdeepsense.h"

int main(int argc, char** argv) {
  apds::obs::ObsSession obs_session(argc, argv);
  using namespace apds;
  using namespace apds::bench;
  try {
    ModelZoo zoo = make_zoo();
    const TaskId task = TaskId::kGasSen;
    const TaskData& td = zoo.data(task);
    const Mlp& mlp = zoo.dropout_model(task, Activation::kRelu);
    const Mlp& rds_mlp = zoo.rdeepsense_model(task, Activation::kRelu);
    const EdisonModel edison;

    auto unscale = [&](PredictiveGaussian pred) {
      pred.mean = td.y_scaler.inverse_transform(pred.mean);
      pred.var = td.y_scaler.inverse_transform_variance(pred.var);
      return pred;
    };

    TablePrinter table({"estimator", "MAE (ppm)", "NLL", "Edison mJ",
                        "trainings", "passes/inference"});
    auto add = [&](const std::string& name, const PredictiveGaussian& pred,
                   double flops, const std::string& trainings,
                   const std::string& passes) {
      const RegressionMetrics m =
          evaluate_regression(pred, td.y_test_natural);
      table.add_row({name, format_double(m.mae, 2), format_double(m.nll, 2),
                     format_double(edison.energy_mj(flops), 1), trainings,
                     passes});
    };

    const PointEstimator point(mlp, td.x_val, td.y_val);
    add("Point (+val calib)", unscale(point.predict_regression(td.x_test)),
        flops_forward(mlp), "1", "1");

    const ApdEstimator apd(mlp);
    add("ApDeepSense", unscale(apd.predict_regression(td.x_test)),
        flops_apdeepsense(mlp), "1", "~2 (analytic)");

    for (std::size_t k : {10, 50}) {
      McDrop mc(mlp, k, /*seed=*/3);
      add("MCDrop-" + std::to_string(k),
          unscale(mc.predict_regression(td.x_test)), flops_mcdrop(mlp, k),
          "1", std::to_string(k));
    }

    const RDeepSense rds(rds_mlp, td.kind, td.output_dim);
    add("RDeepSense", unscale(rds.predict_regression(td.x_test)),
        flops_forward(rds_mlp), "1 (retrained)", "1");

    std::cout << "Design-space comparison — task " << task_name(task)
              << ", DNN-ReLU\n";
    table.print(std::cout);
    std::cout << "Every row needs one training (RDeepSense's is its own "
                 "retraining); Point and RDeepSense run one pass, "
                 "ApDeepSense ~2 analytic, MCDrop-k k. Point's variance is "
                 "one constant per output; ApDeepSense and MCDrop-k get an "
                 "input-dependent variance from the dropout-trained net as "
                 "is, and ApDeepSense does it without sampling.\n";
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "bench failed: " << e.what() << "\n";
    return 1;
  }
}
