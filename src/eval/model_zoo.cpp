#include "eval/model_zoo.h"

#include <filesystem>

#include "common/logging.h"
#include "data/bpest.h"
#include "data/gassen.h"
#include "data/hhar.h"
#include "data/nycommute.h"
#include "metrics/classification_metrics.h"
#include "nn/loss.h"
#include "nn/model_io.h"
#include "uncertainty/rdeepsense.h"

namespace apds {

namespace {
std::uint64_t task_seed(std::uint64_t base, TaskId id) {
  return base * 1000003ULL + static_cast<std::uint64_t>(id) + 1;
}
}  // namespace

ModelZoo::ModelZoo(ZooConfig config) : config_(std::move(config)) {
  std::filesystem::create_directories(config_.cache_dir);
}

TaskData ModelZoo::make_data(TaskId id) {
  Rng rng(task_seed(config_.seed, id));
  const std::size_t n_total = config_.n_train + config_.n_val + config_.n_test;

  TaskData td;
  td.kind = task_kind(id);

  Dataset train_pool;  // train+val rows (test generated per task below)
  Dataset test_set;
  switch (id) {
    case TaskId::kBpest: {
      Dataset all = generate_bpest(n_total, rng);
      const DataSplit split = split_dataset(
          all, 0.0,
          static_cast<double>(config_.n_test) / static_cast<double>(n_total),
          rng);
      train_pool = split.train;
      test_set = split.test;
      break;
    }
    case TaskId::kNyCommute: {
      Dataset all = generate_nycommute(n_total, rng);
      const DataSplit split = split_dataset(
          all, 0.0,
          static_cast<double>(config_.n_test) / static_cast<double>(n_total),
          rng);
      train_pool = split.train;
      test_set = split.test;
      break;
    }
    case TaskId::kGasSen: {
      Dataset all = generate_gassen(n_total, rng);
      const DataSplit split = split_dataset(
          all, 0.0,
          static_cast<double>(config_.n_test) / static_cast<double>(n_total),
          rng);
      train_pool = split.train;
      test_set = split.test;
      break;
    }
    case TaskId::kHhar: {
      // Leave-one-user-out: the test user never appears in training data.
      const HharSplit split = generate_hhar(config_.n_train + config_.n_val,
                                            config_.n_test,
                                            /*test_user=*/8, rng);
      train_pool = split.train;
      test_set = split.test;
      break;
    }
  }

  // Carve validation rows off the training pool.
  Rng split_rng = rng.split();
  const DataSplit tv = split_dataset(
      train_pool,
      static_cast<double>(config_.n_val) /
          static_cast<double>(train_pool.size()),
      0.0, split_rng);

  td.output_dim = test_set.output_dim();
  td.x_scaler = StandardScaler::fit(tv.train.x);
  td.x_train = td.x_scaler.transform(tv.train.x);
  td.x_val = td.x_scaler.transform(tv.val.x);
  td.x_test = td.x_scaler.transform(test_set.x);

  if (td.kind == TaskKind::kRegression) {
    td.y_scaler = StandardScaler::fit(tv.train.y);
    td.y_train = td.y_scaler.transform(tv.train.y);
    td.y_val = td.y_scaler.transform(tv.val.y);
    td.y_test = td.y_scaler.transform(test_set.y);
    td.y_test_natural = test_set.y;
  } else {
    td.y_train = tv.train.y;
    td.y_val = tv.val.y;
    td.y_test = test_set.y;
    td.test_labels = onehot_to_labels(test_set.y);
  }
  return td;
}

const TaskData& ModelZoo::data(TaskId id) {
  auto it = data_.find(id);
  if (it == data_.end()) {
    APDS_INFO("generating dataset for task " << task_name(id));
    it = data_.emplace(id, make_data(id)).first;
  }
  return it->second;
}

MlpSpec ModelZoo::dropout_spec(TaskId id, Activation act) {
  const TaskData& td = data(id);
  MlpSpec spec;
  spec.dims.push_back(td.x_train.cols());
  for (std::size_t l = 0; l < config_.hidden_layers; ++l)
    spec.dims.push_back(config_.hidden_dim);
  spec.dims.push_back(td.output_dim);
  spec.hidden_act = act;
  spec.output_act = Activation::kIdentity;
  spec.hidden_keep_prob = config_.keep_prob;
  spec.input_keep_prob = 1.0;
  return spec;
}

Mlp ModelZoo::train_model(TaskId id, Activation act, bool rdeepsense) {
  const TaskData& td = data(id);
  Rng rng(task_seed(config_.seed, id) ^ (rdeepsense ? 0xbeef : 0x1234) ^
          (static_cast<std::uint64_t>(act) << 32));
  const MlpSpec spec = dropout_spec(id, act);

  if (rdeepsense && td.kind == TaskKind::kRegression) {
    return train_rdeepsense_regression(spec, td.x_train, td.y_train, td.x_val,
                                       td.y_val, config_.train,
                                       config_.rdeepsense_alpha, rng);
  }

  Mlp mlp = Mlp::make(spec, rng);
  if (td.kind == TaskKind::kRegression) {
    const MseLoss loss;
    train_mlp(mlp, td.x_train, td.y_train, td.x_val, td.y_val, loss,
              config_.train, rng);
  } else {
    const SoftmaxCrossEntropyLoss loss;
    train_mlp(mlp, td.x_train, td.y_train, td.x_val, td.y_val, loss,
              config_.train, rng);
  }
  return mlp;
}

const Mlp& ModelZoo::model(const std::string& key, TaskId id, Activation act,
                           bool rdeepsense) {
  auto it = models_.find(key);
  if (it != models_.end()) return it->second;

  const std::string path = config_.cache_dir + "/" + key + ".apds";
  if (is_model_file(path)) {
    APDS_INFO("loading cached model " << path);
    return models_.emplace(key, load_model(path)).first->second;
  }

  APDS_INFO("training model " << key << " (first run; cached afterwards)");
  Mlp mlp = train_model(id, act, rdeepsense);
  save_model(mlp, path);
  return models_.emplace(key, std::move(mlp)).first->second;
}

const Mlp& ModelZoo::dropout_model(TaskId id, Activation act) {
  return model(task_name(id) + "_" + activation_name(act) + "_dropout", id,
               act, /*rdeepsense=*/false);
}

const Mlp& ModelZoo::rdeepsense_model(TaskId id, Activation act) {
  return model(task_name(id) + "_" + activation_name(act) + "_rdeepsense", id,
               act, /*rdeepsense=*/true);
}

}  // namespace apds
