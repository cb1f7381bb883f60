// The four workloads of apds_e2e and the seeded fixture they are built
// from. Every input — networks, test rows, jitter, IMU windows, request
// order, the checked sample — comes from --seed; the library only ever
// sees the generated inputs, through the calls a user makes.
#pragma once

#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "conv/conv_net.h"
#include "conv/rnn.h"
#include "core/inference_session.h"
#include "eval/model_zoo.h"
#include "harness.h"

namespace e2e {

/// One of the paper's eight dense networks (4 tasks x ReLU/Tanh).
struct PaperNet {
  apds::TaskId task = apds::TaskId::kBpest;
  apds::Activation act = apds::Activation::kRelu;
  std::string path;       ///< save_model file the workloads load
  const apds::Matrix* x_test = nullptr;  ///< ModelZoo test rows of the task
  std::size_t out_dim = 0;
  double flops_apd = 0.0;     ///< cost-model FLOPs of one ApDeepSense row
  double flops_mcdrop50 = 0.0;  ///< cost-model FLOPs of one MCDrop-50 row
  /// f64 session the sampled outputs are compared against.
  std::unique_ptr<apds::InferenceSession> reference;
};

/// Inputs generated from --seed before anything is measured: the paper
/// networks (random-initialised with Mlp::make over ModelZoo::dropout_spec
/// and saved with save_model), the tasks' test rows, and the conv/RNN
/// extension models.
class Fixture {
 public:
  Fixture(std::uint64_t seed, std::filesystem::path dir);

  std::uint64_t seed() const { return seed_; }

  /// The network for (task, act), generated and saved on first use.
  const PaperNet& net(apds::TaskId task, apds::Activation act);

  /// All eight paper networks, in task x {ReLU, Tanh} order.
  std::vector<const PaperNet*> paper_nets();

  /// The seq_b1 conv classifier: 3 x conv1d(k=5, s=2, 32 ch) + 416-256-6.
  const std::string& conv_path();
  /// The seq_b1 recurrent cell: tanh, hidden 128, 24 inputs per step.
  apds::RnnCell rnn_cell() const;

 private:
  std::uint64_t seed_;
  std::filesystem::path dir_;
  apds::ModelZoo zoo_;
  std::map<std::pair<int, int>, PaperNet> nets_;
  std::string conv_path_;
};

/// Shape of an IMU window: 6 channels x 128 steps, channel-interleaved.
inline constexpr std::size_t kImuChannels = 6;
inline constexpr std::size_t kImuSteps = 128;
/// moment_rnn reads the window as 32 steps of 4 stacked samples.
inline constexpr std::size_t kRnnSteps = 32;

/// A closed-loop workload: one client sends a request, waits for the
/// answer, checks it, and sends the next.
class Workload {
 public:
  virtual ~Workload() = default;

  /// What a user does before serving: load the models, build the
  /// sessions/estimators and send one warm request. Timed as setup_s.
  virtual void setup() = 0;
  /// Drop what setup() built (between setup repetitions).
  virtual void teardown() = 0;

  /// Generate the requests of round `round`, and with `with_refs` the f64
  /// references of its sampled requests. Untimed.
  virtual void generate(std::uint64_t round, bool with_refs) = 0;
  virtual std::size_t round_size() const = 0;

  /// Serve request i of the current round. This is the timed part.
  virtual void serve(std::size_t i, RequestTrace* trace) = 0;
  /// Check the answer to request i, just served. Untimed.
  virtual bool check(std::size_t i) = 0;

  /// Cost-model FLOPs of one request, averaged over the request mix.
  virtual double flops_per_request() = 0;

  /// Corrupt the next sampled answer before it is checked (--corrupt-one).
  void corrupt_next_sampled() { corrupt_ = true; }

 protected:
  /// Applies a pending --corrupt-one to a sampled answer's mean.
  void apply_corruption(apds::Matrix& mean);
  /// A seeded 1-in-16 sample of n requests; at least one is picked.
  static std::vector<char> pick_sample(apds::Rng& rng, std::size_t n);

 private:
  bool corrupt_ = false;
};

/// Names of the workloads, in BENCHMARK.json order.
const std::vector<std::string>& workload_names();

/// Build workload `name` over `fx`. `divisor` shortens every request list
/// (1 for measured runs, larger for --smoke).
std::unique_ptr<Workload> make_workload(const std::string& name, Fixture& fx,
                                        std::size_t divisor);

/// A seeded IMU window (1 x 768): per-channel sinusoid + gravity + noise.
apds::Matrix imu_window(apds::Rng& rng);

}  // namespace e2e
