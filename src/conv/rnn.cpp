#include "conv/rnn.h"

#include <cmath>

#include "common/error.h"
#include "common/rng.h"
#include "core/moment_activation.h"
#include "core/moment_linear.h"
#include "nn/mlp.h"
#include "tensor/gemm.h"
#include "tensor/ops.h"

namespace apds {

void RnnCell::check() const {
  APDS_CHECK_MSG(w_rec.rows() == w_in.cols() && w_rec.cols() == w_in.cols(),
                 "RnnCell: recurrent weight shape");
  APDS_CHECK_MSG(bias.rows() == 1 && bias.cols() == w_in.cols(),
                 "RnnCell: bias shape");
  APDS_CHECK(rec_keep_prob > 0.0 && rec_keep_prob <= 1.0);
}

RnnCell make_rnn_cell(std::size_t input_dim, std::size_t hidden_dim,
                      Activation act, double rec_keep_prob, Rng& rng) {
  RnnCell cell;
  cell.act = act;
  cell.rec_keep_prob = rec_keep_prob;
  const double in_scale =
      std::sqrt(2.0 / static_cast<double>(input_dim + hidden_dim));
  const double rec_scale = std::sqrt(1.0 / static_cast<double>(hidden_dim));
  cell.w_in = Matrix(input_dim, hidden_dim);
  for (double& v : cell.w_in.flat()) v = rng.normal(0.0, in_scale);
  cell.w_rec = Matrix(hidden_dim, hidden_dim);
  for (double& v : cell.w_rec.flat()) v = rng.normal(0.0, rec_scale);
  cell.bias = Matrix(1, hidden_dim);
  cell.check();
  return cell;
}

namespace {
Matrix step_input(const Matrix& x_seq, std::size_t step,
                  std::size_t input_dim) {
  Matrix x(x_seq.rows(), input_dim);
  for (std::size_t b = 0; b < x_seq.rows(); ++b)
    for (std::size_t j = 0; j < input_dim; ++j)
      x(b, j) = x_seq(b, step * input_dim + j);
  return x;
}

void check_seq(const RnnCell& cell, const Matrix& x_seq, std::size_t steps) {
  cell.check();
  APDS_CHECK_MSG(x_seq.cols() == steps * cell.input_dim(),
                 "rnn: sequence width != steps * input_dim");
  APDS_CHECK(steps > 0);
}
}  // namespace

Matrix rnn_forward(const RnnCell& cell, const Matrix& x_seq,
                   std::size_t steps) {
  check_seq(cell, x_seq, steps);
  Matrix h(x_seq.rows(), cell.hidden_dim());
  Matrix pre(x_seq.rows(), cell.hidden_dim());
  for (std::size_t t = 0; t < steps; ++t) {
    const Matrix x = step_input(x_seq, t, cell.input_dim());
    gemm(x, cell.w_in, pre);
    Matrix h_scaled = scale(h, cell.rec_keep_prob);
    gemm_acc(h_scaled, cell.w_rec, pre);
    add_row_broadcast(pre, cell.bias);
    h = apply_activation(cell.act, pre);
  }
  return h;
}

Matrix rnn_forward_stochastic(const RnnCell& cell, const Matrix& x_seq,
                              std::size_t steps, Rng& rng) {
  check_seq(cell, x_seq, steps);
  Matrix h(x_seq.rows(), cell.hidden_dim());
  Matrix pre(x_seq.rows(), cell.hidden_dim());
  for (std::size_t t = 0; t < steps; ++t) {
    const Matrix x = step_input(x_seq, t, cell.input_dim());
    gemm(x, cell.w_in, pre);
    Matrix h_masked = h;
    if (cell.rec_keep_prob < 1.0)
      for (double& v : h_masked.flat())
        if (!rng.bernoulli(cell.rec_keep_prob)) v = 0.0;
    gemm_acc(h_masked, cell.w_rec, pre);
    add_row_broadcast(pre, cell.bias);
    h = apply_activation(cell.act, pre);
  }
  return h;
}

MeanVar moment_rnn(const RnnCell& cell, const Matrix& x_seq,
                   std::size_t steps, const PiecewiseLinear& surrogate) {
  check_seq(cell, x_seq, steps);
  MeanVar h(x_seq.rows(), cell.hidden_dim());
  for (std::size_t t = 0; t < steps; ++t) {
    // Recurrent part through the paper's dropout-linear moments. The bias
    // rides along here; the input part is then added exactly.
    MeanVar pre =
        moment_linear(h, cell.w_rec, cell.bias, cell.rec_keep_prob);
    const Matrix x = step_input(x_seq, t, cell.input_dim());
    Matrix xin(x.rows(), cell.hidden_dim());
    gemm(x, cell.w_in, xin);
    add_inplace(pre.mean, xin);  // deterministic shift; variance unchanged
    moment_activation_inplace(surrogate, pre);
    h = std::move(pre);
  }
  return h;
}

}  // namespace apds
