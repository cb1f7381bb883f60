#include "conv/rnn.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "common/rng.h"
#include "stats/running_stats.h"
#include "tensor/gemm.h"
#include "tensor/ops.h"

namespace apds {
namespace {

TEST(Rnn, CellValidation) {
  RnnCell cell;
  cell.w_in = Matrix(3, 4);
  cell.w_rec = Matrix(4, 5);  // must be 4x4
  cell.bias = Matrix(1, 4);
  EXPECT_THROW(cell.check(), InvalidArgument);
  cell.w_rec = Matrix(4, 4);
  EXPECT_NO_THROW(cell.check());
  cell.rec_keep_prob = 1.5;
  EXPECT_THROW(cell.check(), InvalidArgument);
}

TEST(Rnn, MakeCellShapes) {
  Rng rng(1);
  const RnnCell cell = make_rnn_cell(3, 6, Activation::kTanh, 0.9, rng);
  EXPECT_EQ(cell.input_dim(), 3u);
  EXPECT_EQ(cell.hidden_dim(), 6u);
}

TEST(Rnn, SingleStepIsADenseLayer) {
  // With one step and h_0 = 0 the recurrent part vanishes: the output is
  // f(x U + b), independent of the recurrent weights and dropout.
  Rng rng(2);
  RnnCell cell = make_rnn_cell(3, 4, Activation::kTanh, 0.5, rng);
  Matrix x(2, 3);
  for (double& v : x.flat()) v = rng.normal();

  const Matrix h = rnn_forward(cell, x, 1);
  Matrix expected(2, 4);
  gemm(x, cell.w_in, expected);
  add_row_broadcast(expected, cell.bias);
  expected = apply_activation(Activation::kTanh, expected);
  EXPECT_LT(max_abs_diff(h, expected), 1e-12);

  Rng pass_rng(3);
  EXPECT_LT(max_abs_diff(rnn_forward_stochastic(cell, x, 1, pass_rng), h),
            1e-12);
}

TEST(Rnn, DeterministicEqualsStochasticWithoutDropout) {
  Rng rng(4);
  RnnCell cell = make_rnn_cell(2, 5, Activation::kTanh, 1.0, rng);
  Matrix x(3, 2 * 6);
  for (double& v : x.flat()) v = rng.normal();
  Rng pass_rng(5);
  EXPECT_LT(max_abs_diff(rnn_forward(cell, x, 6),
                         rnn_forward_stochastic(cell, x, 6, pass_rng)),
            1e-12);
}

TEST(Rnn, StochasticPassesVaryWithDropout) {
  Rng rng(6);
  RnnCell cell = make_rnn_cell(2, 5, Activation::kTanh, 0.5, rng);
  Matrix x(1, 2 * 6, 0.5);
  Rng pass_rng(7);
  const Matrix a = rnn_forward_stochastic(cell, x, 6, pass_rng);
  const Matrix b = rnn_forward_stochastic(cell, x, 6, pass_rng);
  EXPECT_GT(max_abs_diff(a, b), 0.0);
}

TEST(Rnn, MomentMeanMatchesForwardWithoutDropout) {
  Rng rng(8);
  RnnCell cell = make_rnn_cell(2, 6, Activation::kTanh, 1.0, rng);
  Matrix x(2, 2 * 5);
  for (double& v : x.flat()) v = rng.normal(0.0, 0.4);
  const auto surrogate = PiecewiseLinear::fit_tanh(25);
  const MeanVar out = moment_rnn(cell, x, 5, surrogate);
  // PWL fit error only; true values pass through the same surrogate? No —
  // the forward uses the exact tanh, so allow the fit tolerance.
  EXPECT_LT(max_abs_diff(out.mean, rnn_forward(cell, x, 5)), 0.05);
  for (double v : out.var.flat()) EXPECT_NEAR(v, 0.0, 1e-10);
}

TEST(Rnn, MomentsTrackMonteCarloWithDropout) {
  Rng rng(9);
  RnnCell cell = make_rnn_cell(2, 12, Activation::kTanh, 0.8, rng);
  Matrix x(1, 2 * 6);
  for (double& v : x.flat()) v = rng.normal(0.0, 0.8);

  const auto surrogate = PiecewiseLinear::fit_tanh(15);
  const MeanVar predicted = moment_rnn(cell, x, 6, surrogate);

  RunningVectorStats stats(12);
  Rng mc_rng(10);
  const int n = 60000;
  for (int i = 0; i < n; ++i)
    stats.add(rnn_forward_stochastic(cell, x, 6, mc_rng).row(0));

  const auto mc_var = stats.variance();
  double mean_err = 0.0;
  double var_ratio = 0.0;
  std::size_t var_count = 0;
  for (std::size_t j = 0; j < 12; ++j) {
    const double sd = std::sqrt(mc_var[j]) + 1e-9;
    mean_err += std::fabs(predicted.mean(0, j) - stats.mean()[j]) / sd;
    if (mc_var[j] > 1e-6) {
      var_ratio += predicted.var(0, j) / mc_var[j];
      ++var_count;
    }
  }
  // Aggregate agreement: mean within a fraction of the spread, variance
  // ratio near 1 on average (per-unit the independence assumption bites).
  EXPECT_LT(mean_err / 12.0, 0.35);
  ASSERT_GT(var_count, 0u);
  EXPECT_NEAR(var_ratio / static_cast<double>(var_count), 1.0, 0.5);
}

TEST(Rnn, SequenceWidthValidated) {
  Rng rng(11);
  RnnCell cell = make_rnn_cell(3, 4, Activation::kTanh, 0.9, rng);
  Matrix x(1, 10);  // not a multiple of 3
  EXPECT_THROW(rnn_forward(cell, x, 3), InvalidArgument);
  const auto surrogate = PiecewiseLinear::fit_tanh(7);
  EXPECT_THROW(moment_rnn(cell, x, 3, surrogate), InvalidArgument);
}

/// Runs `fn`, which must throw InvalidArgument, and checks that the
/// message names the op, the argument and its value (`needle`).
template <typename Fn>
void expect_invalid(Fn&& fn, const std::string& needle) {
  EXPECT_THROW(fn(), InvalidArgument) << needle;
  try {
    fn();
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << e.what();
  }
}

// Every bad op argument is a typed error naming the op, the argument and
// its value, raised by the up-front check of each sequence entry point.
TEST(Rnn, OpArgumentsAreValidatedWithNamedErrors) {
  Rng rng(12);
  const RnnCell good = make_rnn_cell(3, 4, Activation::kTanh, 0.9, rng);
  const auto surrogate = PiecewiseLinear::fit_tanh(7);
  const Matrix x(2, 3 * 5);
  MeanVar out;
  auto run = [&](const RnnCell& cell, const Matrix& seq, std::size_t steps) {
    return [&cell, &seq, steps, &surrogate, &out] {
      moment_rnn(cell, seq, steps, surrogate, out);
    };
  };
  RnnCell bad = good;
  bad.rec_keep_prob = 1.5;
  expect_invalid(run(bad, x, 5), "rnn: rec_keep_prob 1.5");
  bad.rec_keep_prob = 0.0;
  expect_invalid(run(bad, x, 5), "rnn: rec_keep_prob 0");
  bad = good;
  bad.w_rec = Matrix(4, 5);
  expect_invalid(run(bad, x, 5), "rnn: recurrent weight shape 4x5");
  bad = good;
  bad.bias = Matrix(1, 3);
  expect_invalid(run(bad, x, 5), "rnn: bias shape 1x3");
  expect_invalid(run(good, x, 0), "rnn: steps 0");
  expect_invalid(run(good, x, 4), "rnn: sequence width 15 != steps 4");
  expect_invalid([&] { rnn_forward(good, x, 4); },
                 "rnn: sequence width 15 != steps 4");
}

}  // namespace
}  // namespace apds
