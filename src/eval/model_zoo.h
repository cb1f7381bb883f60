// ModelZoo: deterministic datasets plus pre-trained networks with a disk
// cache, mirroring the paper's "pre-trained neural network" workflow.
//
// For each task the zoo materializes (seeded, hence reproducible) synthetic
// data, standardizes it, and provides four networks: {ReLU, Tanh} x
// {dropout-trained, RDeepSense-retrained}. Networks are trained on first
// request and cached under `cache_dir`; subsequent runs load from disk, so
// the bench suite is slow exactly once.
#pragma once

#include <map>
#include <memory>
#include <string>

#include "data/dataset.h"
#include "data/scaler.h"
#include "eval/task.h"
#include "nn/mlp.h"
#include "nn/trainer.h"

namespace apds {

/// Evaluation-ready tensors for one task. Inputs are standardized;
/// regression targets are standardized for training with the natural-unit
/// originals kept for metric reporting.
struct TaskData {
  TaskKind kind = TaskKind::kRegression;
  std::size_t output_dim = 0;

  Matrix x_train, y_train;  ///< scaled input / training-space target
  Matrix x_val, y_val;
  Matrix x_test, y_test;
  Matrix y_test_natural;               ///< regression targets in natural units
  std::vector<std::size_t> test_labels;  ///< classification labels

  StandardScaler x_scaler;
  StandardScaler y_scaler;  ///< fitted only for regression tasks
};

struct ZooConfig {
  std::string cache_dir = "models";
  std::uint64_t seed = 42;

  /// The paper's architecture: 4 hidden layers of width 512 ("5-layer").
  std::size_t hidden_dim = 512;
  std::size_t hidden_layers = 4;
  double keep_prob = 0.9;

  std::size_t n_train = 2500;
  std::size_t n_val = 400;
  std::size_t n_test = 400;

  TrainConfig train;          ///< shared training schedule
  double rdeepsense_alpha = 0.7;

  ZooConfig() {
    train.epochs = 8;
    train.batch_size = 64;
    train.learning_rate = 1e-3;
    train.lr_decay = 0.92;
    train.patience = 3;
    train.log_every = 0;
  }
};

class ModelZoo {
 public:
  explicit ModelZoo(ZooConfig config = {});

  const ZooConfig& config() const { return config_; }

  /// Dataset bundle for a task (generated and cached in memory on first use).
  const TaskData& data(TaskId id);

  /// Dropout-trained network (MSE or cross-entropy loss) — the paper's
  /// "pre-trained neural network" that ApDeepSense and MCDrop both consume.
  const Mlp& dropout_model(TaskId id, Activation act);

  /// RDeepSense-retrained network: doubled (mu, s) output head for
  /// regression, dropout-regularized softmax for classification.
  const Mlp& rdeepsense_model(TaskId id, Activation act);

  /// The MlpSpec the zoo uses for a task's dropout network.
  MlpSpec dropout_spec(TaskId id, Activation act);

 private:
  const Mlp& model(const std::string& key, TaskId id, Activation act,
                   bool rdeepsense);
  Mlp train_model(TaskId id, Activation act, bool rdeepsense);
  TaskData make_data(TaskId id);

  ZooConfig config_;
  std::map<TaskId, TaskData> data_;
  std::map<std::string, Mlp> models_;
};

}  // namespace apds
