#include "core/moment_contract.h"

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "common/precision.h"
#include "conv/conv_apdeepsense.h"
#include "conv/rnn.h"
#include "core/apdeepsense.h"
#include "nn/mlp.h"
#include "tensor/kernels/kernel_dispatch.h"

namespace apds {
namespace {

MeanVar healthy_batch() {
  MeanVar mv(2, 3);
  for (std::size_t i = 0; i < mv.mean.size(); ++i) {
    mv.mean.flat()[i] = 0.25 * static_cast<double>(i) - 0.5;
    mv.var.flat()[i] = 0.1 * static_cast<double>(i);
  }
  return mv;
}

TEST(MomentContract, AcceptsHealthyBatchesInBothPrecisions) {
  const MeanVar mv = healthy_batch();
  EXPECT_NO_THROW(check_moment_contract(mv, "test"));
  const MeanVarF mvf = to_f32(mv);
  EXPECT_NO_THROW(check_moment_contract(mvf, "test"));
  // Zero variance (deterministic point mass) is valid, not degenerate.
  const MeanVar point = MeanVar::point(Matrix(3, 4, 1.5));
  EXPECT_NO_THROW(check_moment_contract(point, "test"));
}

TEST(MomentContract, RejectsNonFiniteMean) {
  MeanVar mv = healthy_batch();
  mv.mean(1, 2) = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(check_moment_contract(mv, "test"), MomentContractViolation);
  mv = healthy_batch();
  mv.mean(0, 0) = std::numeric_limits<double>::infinity();
  EXPECT_THROW(check_moment_contract(mv, "test"), MomentContractViolation);
}

TEST(MomentContract, RejectsNegativeNanAndInfiniteVariance) {
  MeanVar mv = healthy_batch();
  mv.var(0, 1) = -1e-12;
  EXPECT_THROW(check_moment_contract(mv, "test"), MomentContractViolation);
  mv = healthy_batch();
  mv.var(1, 0) = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(check_moment_contract(mv, "test"), MomentContractViolation);
  mv = healthy_batch();
  mv.var(1, 1) = std::numeric_limits<double>::infinity();
  EXPECT_THROW(check_moment_contract(mv, "test"), MomentContractViolation);
}

TEST(MomentContract, RejectsShapeMismatch) {
  MeanVar mv;
  mv.mean = Matrix(2, 3);
  mv.var = Matrix(2, 2);
  EXPECT_THROW(check_moment_contract(mv, "test"), MomentContractViolation);
}

TEST(MomentContract, MessageNamesSiteAndElement) {
  MeanVar mv = healthy_batch();
  mv.var(1, 2) = -4.0;
  try {
    check_moment_contract(mv, "apd.layer 3");
    FAIL() << "expected MomentContractViolation";
  } catch (const MomentContractViolation& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("apd.layer 3"), std::string::npos) << msg;
    EXPECT_NE(msg.find("[1,2]"), std::string::npos) << msg;
    EXPECT_NE(msg.find("variance"), std::string::npos) << msg;
  }
}

// One input contract for every entry point, checked in every build: a
// poisoned lane (non-finite mean, negative/NaN/infinite variance) in row 0
// of a 2-row batch ends in MomentContractViolation at f64, f32 and i8, on
// the scalar and native kernel tiers, for InferenceSession (through
// ApDeepSense), ConvApDeepSense and moment_rnn — never in a NaN row, a
// silently accepted variance, or an error from deep inside the pass.
TEST(MomentContract, PropagateRejectsPoisonedInput) {
  struct Restore {
    ~Restore() {
      clear_global_kernel_backend();
      clear_global_precision();
    }
  } restore;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const struct {
    bool on_var;
    double value;
  } poisons[] = {{false, nan}, {false, inf}, {false, -inf},
                 {true, nan},  {true, inf},  {true, -1.0}};
  const auto poisoned = [](MeanVar mv, bool on_var, double value) {
    (on_var ? mv.var : mv.mean)(0, 1) = value;
    return mv;
  };

  Rng rng(7);
  std::vector<Mlp> mlps;
  for (const Activation act :
       {Activation::kRelu, Activation::kTanh, Activation::kSigmoid}) {
    MlpSpec spec;
    spec.dims = {4, 16, 16, 16, 2};
    spec.hidden_act = act;
    spec.hidden_keep_prob = 0.9;
    mlps.push_back(Mlp::make(spec, rng));
  }
  MeanVar dense_in(2, 4);
  for (double& v : dense_in.mean.flat()) v = rng.normal();
  for (double& v : dense_in.var.flat()) v = 0.1;

  std::vector<Conv1dLayer> convs;
  convs.push_back(make_conv1d(3, 2, 4, 1, Activation::kTanh, 0.9, rng));
  MlpSpec head;
  head.dims = {4 * 6, 8, 2};
  head.hidden_act = Activation::kRelu;
  head.hidden_keep_prob = 0.9;
  const ConvNet net(8, 2, std::move(convs), Mlp::make(head, rng));
  const ConvApDeepSense conv(net);
  MeanVar conv_in(2, 8 * 2);
  for (double& v : conv_in.mean.flat()) v = rng.normal();
  for (double& v : conv_in.var.flat()) v = 0.1;

  const RnnCell cell = make_rnn_cell(3, 8, Activation::kTanh, 0.9, rng);
  const auto tanh_pwl = PiecewiseLinear::for_activation(Activation::kTanh);
  Matrix seq(2, 3 * 4);
  for (double& v : seq.flat()) v = rng.normal();

  for (const KernelBackend backend :
       {KernelBackend::kScalar, best_supported_backend()}) {
    set_global_kernel_backend(backend);
    for (const Precision precision :
         {Precision::kF64, Precision::kF32, Precision::kI8}) {
      set_global_precision(precision);
      SCOPED_TRACE(std::string(precision_name(precision)) + "/" +
                   kernel_backend_name(backend));
      for (const Mlp& mlp : mlps) {
        const ApDeepSense apd(mlp);
        EXPECT_NO_THROW(apd.propagate(dense_in));
        for (const auto& p : poisons)
          EXPECT_THROW(apd.propagate(poisoned(dense_in, p.on_var, p.value)),
                       MomentContractViolation)
              << (p.on_var ? "var " : "mean ") << p.value;
      }
      EXPECT_NO_THROW(conv.propagate(conv_in));
      for (const auto& p : poisons)
        EXPECT_THROW(conv.propagate(poisoned(conv_in, p.on_var, p.value)),
                     MomentContractViolation)
            << "conv " << (p.on_var ? "var " : "mean ") << p.value;
    }
    // The RNN is f64-only and takes a deterministic sequence: its contract
    // is finite values.
    EXPECT_NO_THROW(moment_rnn(cell, seq, 4, tanh_pwl));
    for (const double value : {nan, inf, -inf}) {
      Matrix bad = seq;
      bad(0, 1) = value;
      EXPECT_THROW(moment_rnn(cell, bad, 4, tanh_pwl),
                   MomentContractViolation)
          << "rnn " << value;
    }
  }
}

}  // namespace
}  // namespace apds
