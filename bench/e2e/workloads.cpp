#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <numeric>
#include <span>

#include "conv/conv_apdeepsense.h"
#include "conv/conv_io.h"
#include "core/softmax_approx.h"
#include "nn/model_io.h"
#include "platform/cost_model.h"
#include "tensor/kernels/kernel_dispatch.h"
#include "uncertainty/mcdrop.h"

namespace e2e {

using apds::Activation;
using apds::InferenceSession;
using apds::Matrix;
using apds::MeanVar;
using apds::Precision;
using apds::Rng;
using apds::TaskId;

namespace {

/// N(0, 0.05^2) jitter on every dense input, so no two requests repeat and
/// a result cache could never hit.
constexpr double kJitterSd = 0.05;

/// Scaled-difference bounds against the f64 reference, per precision. f64
/// and i8 use the depth-8 bounds of tests/test_precision.cpp. The f32 one
/// is wider than that test's 5e-4: the tanh surrogate jumps by up to 0.047
/// at its breakpoints, and a first-layer unit (a point input, so no
/// variance to smooth the jump) whose f32 pre-activation lands across a
/// breakpoint from the f64 one moves a paper network's outputs by ~2e-3.
/// That happened to 1 in ~25,000 sampled requests; the usual f32 drift is
/// under 3e-6.
constexpr double kTolF64 = 1e-9;
constexpr double kTolF32 = 1e-2;
constexpr double kTolI8 = 3e-1;

/// MCDrop draws per request, and its variance floor (McDrop's default).
constexpr std::size_t kMcSamples = 50;
constexpr double kMcVarFloor = 1e-6;
/// MCDrop-50 class probabilities against the mean-field ApDeepSense ones:
/// five standard errors of a 50-draw mean of values in [0, 1], plus 0.1 for
/// the mean-field approximation itself.
const double kMcProbBound = 5.0 * std::sqrt(0.25 / kMcSamples) + 0.1;

// Round-seed tags, one per workload.
constexpr std::uint64_t kEdgeTag = 1ULL << 40;
constexpr std::uint64_t kBatchTag = 2ULL << 40;
constexpr std::uint64_t kMcTag = 3ULL << 40;
constexpr std::uint64_t kSeqTag = 4ULL << 40;

/// Reference outputs are computed on the scalar kernel tier, whatever tier
/// the measured calls dispatch to.
class ScalarTier {
 public:
  ScalarTier() : prev_(apds::global_kernel_backend()) {
    apds::set_global_kernel_backend(apds::KernelBackend::kScalar);
  }
  ~ScalarTier() { apds::set_global_kernel_backend(prev_); }
  ScalarTier(const ScalarTier&) = delete;
  ScalarTier& operator=(const ScalarTier&) = delete;

 private:
  apds::KernelBackend prev_;
};

/// A test row of `x_test` plus jitter.
Matrix jittered_row(const Matrix& x_test, Rng& rng) {
  Matrix x = x_test.row_copy(rng.uniform_index(x_test.rows()));
  for (double& v : x.flat()) v += rng.normal(0.0, kJitterSd);
  return x;
}

/// Stack rows of one width into a matrix.
Matrix stack_rows(const std::vector<std::span<const double>>& rows) {
  Matrix out(rows.size(), rows.front().size());
  for (std::size_t i = 0; i < rows.size(); ++i)
    std::copy(rows[i].begin(), rows[i].end(), out.row(i).begin());
  return out;
}

/// Rows `ids` of `m`.
Matrix pick_rows(const Matrix& m, const std::vector<std::size_t>& ids) {
  std::vector<std::span<const double>> rows;
  for (std::size_t id : ids) rows.push_back(m.row(id));
  return stack_rows(rows);
}

/// n requests over k networks, each network the same number of times, in a
/// seeded order. Every round then has the same mix of network sizes, so a
/// percentile of the pooled latencies does not move with the mix.
std::vector<std::size_t> balanced_order(Rng& rng, std::size_t k,
                                        std::size_t n) {
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i % k;
  rng.shuffle(order);
  return order;
}

/// n requests over k networks in k bursts of n / k consecutive requests,
/// the bursts in a seeded order.
std::vector<std::size_t> burst_order(Rng& rng, std::size_t k, std::size_t n) {
  std::vector<std::size_t> nets(k);
  std::iota(nets.begin(), nets.end(), std::size_t{0});
  rng.shuffle(nets);
  std::vector<std::size_t> order;
  for (std::size_t net : nets) order.insert(order.end(), n / k, net);
  return order;
}

MeanVar row_of(const MeanVar& mv, std::size_t r) {
  MeanVar out;
  out.mean = mv.mean.row_copy(r);
  out.var = mv.var.row_copy(r);
  return out;
}

bool close_to(const MeanVar& ref, const Matrix& mean, const Matrix& var,
              double tol) {
  return max_scaled_diff(ref.mean, mean) <= tol &&
         max_scaled_diff(ref.var, var) <= tol;
}

bool is_hhar(const PaperNet& net) { return net.task == TaskId::kHhar; }

apds::ConvNet make_conv_net(Rng& rng) {
  std::vector<apds::Conv1dLayer> convs;
  std::size_t in_ch = kImuChannels;
  for (int l = 0; l < 3; ++l) {
    convs.push_back(apds::make_conv1d(5, in_ch, 32, 2, Activation::kRelu, 0.9,
                                      rng));
    in_ch = 32;
  }
  apds::MlpSpec head;
  head.dims = {416, 256, 6};
  head.hidden_act = Activation::kRelu;
  head.hidden_keep_prob = 0.9;
  return apds::ConvNet(kImuSteps, kImuChannels, std::move(convs),
                       apds::Mlp::make(head, rng));
}

apds::ZooConfig zoo_config(std::uint64_t seed,
                           const std::filesystem::path& dir) {
  apds::ZooConfig config;
  config.cache_dir = dir.string();
  config.seed = seed;
  return config;
}

}  // namespace

Fixture::Fixture(std::uint64_t seed, std::filesystem::path dir)
    : seed_(seed), dir_(std::move(dir)), zoo_(zoo_config(seed, dir_)) {}

const PaperNet& Fixture::net(TaskId task, Activation act) {
  const auto key = std::make_pair(static_cast<int>(task), static_cast<int>(act));
  if (auto it = nets_.find(key); it != nets_.end()) return it->second;

  Rng rng(derive_seed(seed_, 100 + 2 * static_cast<std::uint64_t>(key.first) +
                                 static_cast<std::uint64_t>(key.second)));
  const apds::Mlp mlp = apds::Mlp::make(zoo_.dropout_spec(task, act), rng);
  PaperNet net;
  net.task = task;
  net.act = act;
  net.path = (dir_ / (apds::task_name(task) + "_" +
                      apds::activation_name(act) + ".apds"))
                 .string();
  apds::save_model(mlp, net.path);
  net.x_test = &zoo_.data(task).x_test;
  net.out_dim = mlp.output_dim();
  net.flops_apd = apds::flops_apdeepsense(mlp);
  net.flops_mcdrop50 = apds::flops_mcdrop(mlp, kMcSamples);
  apds::SessionConfig config;
  config.precision = Precision::kF64;
  net.reference = std::make_unique<InferenceSession>(mlp, config);
  return nets_.emplace(key, std::move(net)).first->second;
}

std::vector<const PaperNet*> Fixture::paper_nets() {
  std::vector<const PaperNet*> out;
  for (TaskId task : apds::all_tasks())
    for (Activation act : {Activation::kRelu, Activation::kTanh})
      out.push_back(&net(task, act));
  return out;
}

const std::string& Fixture::conv_path() {
  if (conv_path_.empty()) {
    Rng rng(derive_seed(seed_, 200));
    const std::string path = (dir_ / "imu_conv.apdsconv").string();
    apds::save_conv_net(make_conv_net(rng), path);
    conv_path_ = path;
  }
  return conv_path_;
}

apds::RnnCell Fixture::rnn_cell() const {
  Rng rng(derive_seed(seed_, 300));
  return apds::make_rnn_cell(kImuChannels * kImuSteps / kRnnSteps, 128,
                             Activation::kTanh, 0.9, rng);
}

Matrix imu_window(Rng& rng) {
  constexpr double kRateHz = 50.0;
  Matrix x(1, kImuSteps * kImuChannels);
  for (std::size_t c = 0; c < kImuChannels; ++c) {
    const double offset = c == 2 ? 1.0 : 0.0;  // gravity on accel z
    const double amp = rng.uniform(0.2, 1.0);
    const double freq = rng.uniform(0.5, 3.0);
    const double phase = rng.uniform(0.0, 2.0 * std::numbers::pi);
    for (std::size_t t = 0; t < kImuSteps; ++t)
      x(0, t * kImuChannels + c) =
          offset +
          amp * std::sin(2.0 * std::numbers::pi * freq *
                             static_cast<double>(t) / kRateHz +
                         phase) +
          rng.normal(0.0, 0.05);
  }
  return x;
}

void Workload::apply_corruption(Matrix& mean) {
  if (!corrupt_) return;
  mean.flat()[0] = -mean.flat()[0] + 1e3;
  corrupt_ = false;
}

std::vector<char> Workload::pick_sample(Rng& rng, std::size_t n) {
  std::vector<char> sampled(n, 0);
  bool any = false;
  for (char& s : sampled) {
    s = rng.uniform_index(16) == 0 ? 1 : 0;
    any = any || s != 0;
  }
  if (!any && n > 0) sampled[0] = 1;
  return sampled;
}

namespace {

// ---------------------------------------------------------------------------
// edge_b1: batch-1 f32 sessions over the eight paper networks, plus the
// mean-field softmax on HHAR answers. Each network is served for a burst of
// consecutive requests, so a request streams one network's ~7 MB of packs
// from L3 rather than refetching whichever of the 55 MB other tenants of a
// shared L3 evicted: with the networks interleaved request by request, the
// median latency was 0.53 ms instead of 0.32 and spread by 16 % between
// runs instead of 10 % (10 alternating runs of each).
// ---------------------------------------------------------------------------
class EdgeB1 final : public Workload {
 public:
  EdgeB1(Fixture& fx, std::size_t divisor)
      : fx_(fx),
        nets_(fx.paper_nets()),
        per_round_(nets_.size() * std::max<std::size_t>(1, 96 / divisor)) {}

  void setup() override {
    for (const PaperNet* net : nets_) {
      apds::SessionConfig config;
      config.precision = Precision::kF32;
      config.max_batch = 1;
      sessions_.push_back(std::make_unique<InferenceSession>(
          apds::load_model(net->path), config));
      sessions_.back()->propagate(MeanVar::point(net->x_test->row_copy(0)),
                                  out_);
      if (is_hhar(*net)) probs_ = apds::softmax_meanfield(out_.row(0));
    }
  }

  void teardown() override { sessions_.clear(); }

  void generate(std::uint64_t round, bool with_refs) override {
    Rng rng(derive_seed(fx_.seed(), kEdgeTag + round));
    net_of_ = burst_order(rng, nets_.size(), per_round_);
    in_.resize(per_round_);
    for (std::size_t i = 0; i < per_round_; ++i)
      in_[i] = MeanVar::point(jittered_row(*nets_[net_of_[i]]->x_test, rng));
    sampled_ = pick_sample(rng, per_round_);
    refs_.assign(per_round_, MeanVar());
    if (!with_refs) return;
    ScalarTier tier;
    for (std::size_t k = 0; k < nets_.size(); ++k) {
      std::vector<std::size_t> ids;
      std::vector<std::span<const double>> rows;
      for (std::size_t i = 0; i < per_round_; ++i)
        if (sampled_[i] && net_of_[i] == k) {
          ids.push_back(i);
          rows.push_back(in_[i].mean.row(0));
        }
      if (ids.empty()) continue;
      const MeanVar ref = nets_[k]->reference->propagate(stack_rows(rows));
      for (std::size_t j = 0; j < ids.size(); ++j) refs_[ids[j]] = row_of(ref, j);
    }
  }

  std::size_t round_size() const override { return per_round_; }

  void serve(std::size_t i, RequestTrace* trace) override {
    const std::size_t k = net_of_[i];
    {
      CallSpan span(trace, "core.InferenceSession::propagate");
      sessions_[k]->propagate(in_[i], out_);
    }
    if (is_hhar(*nets_[k])) {
      CallSpan span(trace, "core.softmax_meanfield");
      probs_ = apds::softmax_meanfield(out_.row(0));
    }
  }

  bool check(std::size_t i) override {
    const PaperNet& net = *nets_[net_of_[i]];
    if (!well_formed(out_, 1, net.out_dim)) return false;
    if (is_hhar(net) && !valid_probs(probs_, net.out_dim)) return false;
    if (!sampled_[i]) return true;
    apply_corruption(out_.mean);
    return close_to(refs_[i], out_.mean, out_.var, kTolF32);
  }

  double flops_per_request() override {
    double sum = 0.0;
    for (const PaperNet* net : nets_) sum += net->flops_apd;
    return sum / static_cast<double>(nets_.size());
  }

 private:
  Fixture& fx_;
  std::vector<const PaperNet*> nets_;
  std::size_t per_round_;
  std::vector<std::unique_ptr<InferenceSession>> sessions_;
  std::vector<std::size_t> net_of_;
  std::vector<MeanVar> in_;
  std::vector<char> sampled_;
  std::vector<MeanVar> refs_;
  MeanVar out_;
  std::vector<double> probs_;
};

// ---------------------------------------------------------------------------
// batch64: 64-row batches through BPEst-Tanh at f64, f32 and i8,
// interleaved within every round.
// ---------------------------------------------------------------------------
class Batch64 final : public Workload {
 public:
  static constexpr std::size_t kRows = 64;
  /// Rows of a sampled batch compared against the f64 reference.
  static constexpr std::size_t kCheckedRows = 4;

  Batch64(Fixture& fx, std::size_t divisor)
      : fx_(fx),
        net_(fx.net(TaskId::kBpest, Activation::kTanh)),
        counts_{std::max<std::size_t>(1, 2 / divisor),
                std::max<std::size_t>(1, 7 / divisor),
                std::max<std::size_t>(1, 7 / divisor)} {}

  void setup() override {
    const apds::Mlp mlp = apds::load_model(net_.path);
    Rng rng(derive_seed(fx_.seed(), kBatchTag - 1));
    const MeanVar warm = MeanVar::point(batch_of(rng));
    for (std::size_t p = 0; p < 3; ++p) {
      apds::SessionConfig config;
      config.precision = kPrecisions[p];
      config.max_batch = kRows;
      sessions_[p] = std::make_unique<InferenceSession>(mlp, config);
      sessions_[p]->propagate(warm, out_);
    }
  }

  void teardown() override {
    for (auto& s : sessions_) s.reset();
  }

  void generate(std::uint64_t round, bool with_refs) override {
    Rng rng(derive_seed(fx_.seed(), kBatchTag + round));
    precision_of_.clear();
    for (std::size_t p = 0; p < 3; ++p)
      precision_of_.insert(precision_of_.end(), counts_[p], p);
    rng.shuffle(precision_of_);
    const std::size_t n = precision_of_.size();
    in_.resize(n);
    for (MeanVar& in : in_) in = MeanVar::point(batch_of(rng));
    sampled_ = pick_sample(rng, n);
    checked_rows_.assign(n, {});
    refs_.assign(n, MeanVar());
    if (!with_refs) return;
    ScalarTier tier;
    for (std::size_t i = 0; i < n; ++i) {
      if (!sampled_[i]) continue;
      for (std::size_t r = 0; r < kCheckedRows; ++r)
        checked_rows_[i].push_back(rng.uniform_index(kRows));
      refs_[i] = net_.reference->propagate(
          pick_rows(in_[i].mean, checked_rows_[i]));
    }
  }

  std::size_t round_size() const override { return precision_of_.size(); }

  void serve(std::size_t i, RequestTrace* trace) override {
    const std::size_t p = precision_of_[i];
    CallSpan span(trace, kSpanNames[p]);
    sessions_[p]->propagate(in_[i], out_);
  }

  bool check(std::size_t i) override {
    if (!well_formed(out_, kRows, net_.out_dim)) return false;
    if (!sampled_[i]) return true;
    Matrix got_mean = pick_rows(out_.mean, checked_rows_[i]);
    apply_corruption(got_mean);
    return close_to(refs_[i], got_mean, pick_rows(out_.var, checked_rows_[i]),
                    kTols[precision_of_[i]]);
  }

  double flops_per_request() override {
    return static_cast<double>(kRows) * net_.flops_apd;
  }

 private:
  static constexpr Precision kPrecisions[3] = {Precision::kF64, Precision::kF32,
                                               Precision::kI8};
  static constexpr double kTols[3] = {kTolF64, kTolF32, kTolI8};
  static constexpr const char* kSpanNames[3] = {
      "core.InferenceSession::propagate.f64",
      "core.InferenceSession::propagate.f32",
      "core.InferenceSession::propagate.i8"};

  Matrix batch_of(Rng& rng) const {
    Matrix x(kRows, net_.x_test->cols());
    for (std::size_t r = 0; r < kRows; ++r) {
      const Matrix row = jittered_row(*net_.x_test, rng);
      std::copy(row.flat().begin(), row.flat().end(), x.row(r).begin());
    }
    return x;
  }

  Fixture& fx_;
  const PaperNet& net_;
  std::size_t counts_[3];
  std::unique_ptr<InferenceSession> sessions_[3];
  std::vector<std::size_t> precision_of_;
  std::vector<MeanVar> in_;
  std::vector<char> sampled_;
  std::vector<std::vector<std::size_t>> checked_rows_;
  std::vector<MeanVar> refs_;
  MeanVar out_;
};

// ---------------------------------------------------------------------------
// mcdrop50_b1: the paper's comparator, MCDrop-50 at batch 1 on the eight
// paper networks, a fresh estimator seed per request.
// ---------------------------------------------------------------------------
class McDrop50B1 final : public Workload {
 public:
  McDrop50B1(Fixture& fx, std::size_t divisor)
      : fx_(fx),
        nets_(fx.paper_nets()),
        per_round_(nets_.size() * std::max<std::size_t>(1, 2 / divisor)) {}

  void setup() override {
    for (const PaperNet* net : nets_) {
      mlps_.push_back(apds::load_model(net->path));
      const apds::McDrop mc(mlps_.back(), kMcSamples, 1);
      const Matrix x = net->x_test->row_copy(0);
      if (is_hhar(*net))
        cls_ = mc.predict_classification(x);
      else
        reg_ = mc.predict_regression(x);
    }
  }

  void teardown() override { mlps_.clear(); }

  void generate(std::uint64_t round, bool with_refs) override {
    Rng rng(derive_seed(fx_.seed(), kMcTag + round));
    net_of_ = balanced_order(rng, nets_.size(), per_round_);
    x_.resize(per_round_);
    seeds_.resize(per_round_);
    for (std::size_t i = 0; i < per_round_; ++i) {
      x_[i] = jittered_row(*nets_[net_of_[i]]->x_test, rng);
      seeds_[i] = rng.next();
    }
    sampled_ = pick_sample(rng, per_round_);
    refs_.assign(per_round_, MeanVar());
    if (!with_refs) return;
    ScalarTier tier;
    for (std::size_t i = 0; i < per_round_; ++i)
      if (sampled_[i]) refs_[i] = nets_[net_of_[i]]->reference->propagate(x_[i]);
  }

  std::size_t round_size() const override { return per_round_; }

  void serve(std::size_t i, RequestTrace* trace) override {
    const apds::Mlp& mlp = mlps_[net_of_[i]];
    if (is_hhar(*nets_[net_of_[i]])) {
      CallSpan span(trace, "uncertainty.McDrop::predict_classification");
      const apds::McDrop mc(mlp, kMcSamples, seeds_[i]);
      cls_ = mc.predict_classification(x_[i]);
    } else {
      CallSpan span(trace, "uncertainty.McDrop::predict_regression");
      const apds::McDrop mc(mlp, kMcSamples, seeds_[i]);
      reg_ = mc.predict_regression(x_[i]);
    }
  }

  bool check(std::size_t i) override {
    const PaperNet& net = *nets_[net_of_[i]];
    if (is_hhar(net)) {
      if (cls_.probs.rows() != 1 || !valid_probs(cls_.probs.row(0), net.out_dim))
        return false;
      if (!sampled_[i]) return true;
      Matrix got = cls_.probs;
      apply_corruption(got);
      const std::vector<double> ref = apds::softmax_meanfield(refs_[i].row(0));
      for (std::size_t c = 0; c < net.out_dim; ++c)
        if (!(std::fabs(got(0, c) - ref[c]) <= kMcProbBound)) return false;
      return true;
    }
    if (!well_formed(reg_.mean, reg_.var, 1, net.out_dim, kMcVarFloor))
      return false;
    if (!sampled_[i]) return true;
    Matrix got = reg_.mean;
    apply_corruption(got);
    // The MC mean lies within five of its standard errors, plus half a
    // reference standard deviation for the moment-matching error.
    for (std::size_t j = 0; j < net.out_dim; ++j) {
      const double bound =
          5.0 * std::sqrt(reg_.var(0, j) / static_cast<double>(kMcSamples)) +
          0.5 * std::sqrt(refs_[i].var(0, j));
      if (!(std::fabs(got(0, j) - refs_[i].mean(0, j)) <= bound)) return false;
    }
    return true;
  }

  double flops_per_request() override {
    double sum = 0.0;
    for (const PaperNet* net : nets_) sum += net->flops_mcdrop50;
    return sum / static_cast<double>(nets_.size());
  }

 private:
  Fixture& fx_;
  std::vector<const PaperNet*> nets_;
  std::size_t per_round_;
  std::vector<apds::Mlp> mlps_;
  std::vector<std::size_t> net_of_;
  std::vector<Matrix> x_;
  std::vector<std::uint64_t> seeds_;
  std::vector<char> sampled_;
  std::vector<MeanVar> refs_;
  apds::PredictiveGaussian reg_;
  apds::PredictiveCategorical cls_;
};

// ---------------------------------------------------------------------------
// seq_b1: one IMU window through both section VI extensions — the
// ConvApDeepSense classifier and moment_rnn.
// ---------------------------------------------------------------------------
class SeqB1 final : public Workload {
 public:
  SeqB1(Fixture& fx, std::size_t divisor)
      : fx_(fx),
        per_round_(std::max<std::size_t>(1, 140 / divisor)),
        ref_net_(std::make_unique<apds::ConvNet>(
            apds::load_conv_net(fx.conv_path()))),
        ref_apd_(std::make_unique<apds::ConvApDeepSense>(*ref_net_)),
        ref_cell_(fx.rnn_cell()),
        pwl_(apds::PiecewiseLinear::for_activation(Activation::kTanh)) {}

  void setup() override {
    net_ = std::make_unique<apds::ConvNet>(apds::load_conv_net(fx_.conv_path()));
    apd_ = std::make_unique<apds::ConvApDeepSense>(*net_);
    cell_ = fx_.rnn_cell();
    Rng rng(derive_seed(fx_.seed(), kSeqTag - 1));
    const Matrix warm = imu_window(rng);
    conv_out_ = apd_->propagate(warm);
    rnn_out_ = apds::moment_rnn(cell_, warm, kRnnSteps, pwl_);
  }

  void teardown() override {
    apd_.reset();
    net_.reset();
  }

  void generate(std::uint64_t round, bool with_refs) override {
    Rng rng(derive_seed(fx_.seed(), kSeqTag + round));
    x_.resize(per_round_);
    for (Matrix& x : x_) x = imu_window(rng);
    sampled_ = pick_sample(rng, per_round_);
    conv_refs_.assign(per_round_, MeanVar());
    rnn_refs_.assign(per_round_, MeanVar());
    if (!with_refs) return;
    ScalarTier tier;
    std::vector<std::size_t> ids;
    std::vector<std::span<const double>> rows;
    for (std::size_t i = 0; i < per_round_; ++i)
      if (sampled_[i]) {
        ids.push_back(i);
        rows.push_back(x_[i].row(0));
      }
    const Matrix batch = stack_rows(rows);
    const MeanVar conv = ref_apd_->propagate(batch);
    const MeanVar rnn = apds::moment_rnn(ref_cell_, batch, kRnnSteps, pwl_);
    for (std::size_t j = 0; j < ids.size(); ++j) {
      conv_refs_[ids[j]] = row_of(conv, j);
      rnn_refs_[ids[j]] = row_of(rnn, j);
    }
  }

  std::size_t round_size() const override { return per_round_; }

  void serve(std::size_t i, RequestTrace* trace) override {
    {
      CallSpan span(trace, "conv.ConvApDeepSense::propagate");
      conv_out_ = apd_->propagate(x_[i]);
    }
    CallSpan span(trace, "conv.moment_rnn");
    rnn_out_ = apds::moment_rnn(cell_, x_[i], kRnnSteps, pwl_);
  }

  bool check(std::size_t i) override {
    if (!well_formed(conv_out_, 1, 6) ||
        !well_formed(rnn_out_, 1, cell_.hidden_dim()))
      return false;
    if (!sampled_[i]) return true;
    apply_corruption(conv_out_.mean);
    return close_to(conv_refs_[i], conv_out_.mean, conv_out_.var, kTolF64) &&
           close_to(rnn_refs_[i], rnn_out_.mean, rnn_out_.var, kTolF64);
  }

  double flops_per_request() override {
    // The cost model has no RNN entry; one step is costed as a 128->128
    // tanh dropout layer (the recurrent moments) plus the exact 24->128
    // input map.
    apds::DenseLayer rec;
    rec.weight = ref_cell_.w_rec;
    rec.bias = ref_cell_.bias;
    rec.act = ref_cell_.act;
    rec.keep_prob = ref_cell_.rec_keep_prob;
    apds::DenseLayer in;
    in.weight = ref_cell_.w_in;
    in.bias = Matrix(1, ref_cell_.hidden_dim());
    const double step =
        apds::flops_apdeepsense(apds::Mlp::from_layers({rec})) +
        apds::flops_forward(apds::Mlp::from_layers({in}));
    return apds::flops_conv_apdeepsense(*ref_net_) +
           static_cast<double>(kRnnSteps) * step;
  }

 private:
  Fixture& fx_;
  std::size_t per_round_;
  std::unique_ptr<apds::ConvNet> ref_net_;
  std::unique_ptr<apds::ConvApDeepSense> ref_apd_;
  apds::RnnCell ref_cell_;
  apds::PiecewiseLinear pwl_;
  std::unique_ptr<apds::ConvNet> net_;
  std::unique_ptr<apds::ConvApDeepSense> apd_;
  apds::RnnCell cell_;
  std::vector<Matrix> x_;
  std::vector<char> sampled_;
  std::vector<MeanVar> conv_refs_;
  std::vector<MeanVar> rnn_refs_;
  MeanVar conv_out_;
  MeanVar rnn_out_;
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"edge_b1", "batch64",
                                                 "mcdrop50_b1", "seq_b1"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name, Fixture& fx,
                                        std::size_t divisor) {
  if (name == "edge_b1") return std::make_unique<EdgeB1>(fx, divisor);
  if (name == "batch64") return std::make_unique<Batch64>(fx, divisor);
  if (name == "mcdrop50_b1") return std::make_unique<McDrop50B1>(fx, divisor);
  if (name == "seq_b1") return std::make_unique<SeqB1>(fx, divisor);
  return nullptr;
}

}  // namespace e2e
