#include "conv/rnn.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"
#include "common/rng.h"
#include "core/arena.h"
#include "core/moment_activation.h"
#include "core/moment_contract.h"
#include "core/moment_linear.h"
#include "nn/mlp.h"
#include "tensor/gemm.h"
#include "tensor/ops.h"

namespace apds {

void RnnCell::check() const {
  APDS_CHECK_MSG(w_rec.rows() == w_in.cols() && w_rec.cols() == w_in.cols(),
                 "rnn: recurrent weight shape " << w_rec.rows() << "x"
                                                << w_rec.cols() << " != "
                                                << w_in.cols() << "x"
                                                << w_in.cols());
  APDS_CHECK_MSG(bias.rows() == 1 && bias.cols() == w_in.cols(),
                 "rnn: bias shape " << bias.rows() << "x" << bias.cols()
                                    << " != 1x" << w_in.cols());
  APDS_CHECK_MSG(rec_keep_prob > 0.0 && rec_keep_prob <= 1.0,
                 "rnn: rec_keep_prob " << rec_keep_prob << " not in (0, 1]");
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

/// The op-argument checks of every sequence entry point, once per call.
void check_seq(const RnnCell& cell, const Matrix& x_seq, std::size_t steps) {
  cell.check();
  APDS_CHECK_MSG(steps > 0, "rnn: steps " << steps << " must be > 0");
  APDS_CHECK_MSG(x_seq.cols() == steps * cell.input_dim(),
                 "rnn: sequence width " << x_seq.cols() << " != steps "
                                        << steps << " * input_dim "
                                        << cell.input_dim());
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
  MeanVar out;
  moment_rnn(cell, x_seq, steps, surrogate, out);
  return out;
}

void moment_rnn(const RnnCell& cell, const Matrix& x_seq, std::size_t steps,
                const PiecewiseLinear& surrogate, MeanVar& out) {
  check_seq(cell, x_seq, steps);
  check_moment_contract_buffers<double>(x_seq.data(), nullptr, x_seq.size(),
                                        x_seq.cols(), "rnn.propagate input");
  const std::size_t batch = x_seq.rows();
  const std::size_t hidden = cell.hidden_dim();
  const std::size_t state = batch * hidden;

  // Scratch from the calling thread's arena: every step's input map, one
  // hidden-state slot pair and the prepped moment inputs sm/vi.
  const std::size_t xin_bytes =
      arena_round(batch * steps * hidden * sizeof(double));
  const std::size_t slot = arena_round(state * sizeof(double));
  std::byte* scratch = thread_scratch().require(xin_bytes + 6 * slot);
  double* xin = reinterpret_cast<double*>(scratch);
  double* h_mean[2] = {reinterpret_cast<double*>(scratch + xin_bytes),
                       reinterpret_cast<double*>(scratch + xin_bytes + slot)};
  double* h_var[2] = {
      reinterpret_cast<double*>(scratch + xin_bytes + 2 * slot),
      reinterpret_cast<double*>(scratch + xin_bytes + 3 * slot)};
  double* sm = reinterpret_cast<double*>(scratch + xin_bytes + 4 * slot);
  double* vi = reinterpret_cast<double*>(scratch + xin_bytes + 5 * slot);

  // The input part of every step in one product: x_seq's rows are
  // step-interleaved, so read row-major it is [batch * steps, input_dim]
  // and row b * steps + t is sample b's input at step t.
  gemm_buffers(x_seq.data(), cell.w_in.data(), xin, batch * steps,
               cell.input_dim(), hidden, /*accumulate=*/false);

  // Caller-owned output: resize keeps capacity, so a reused `out`
  // allocates nothing once warm.
  out.mean.resize(batch, hidden);
  out.var.resize(batch, hidden);
  std::fill(h_mean[0], h_mean[0] + state, 0.0);
  std::fill(h_var[0], h_var[0] + state, 0.0);
  for (std::size_t t = 0; t < steps; ++t) {
    const bool last = t + 1 == steps;
    double* om = last ? out.mean.data() : h_mean[(t + 1) % 2];
    double* ov = last ? out.var.data() : h_var[(t + 1) % 2];
    // Recurrent part through the paper's dropout-linear moments. The bias
    // rides along here; the input part is then added exactly (a
    // deterministic shift, variance unchanged).
    moment_linear_into(h_mean[t % 2], h_var[t % 2], batch, hidden,
                       cell.w_rec.data(), cell.bias.data(), hidden,
                       cell.rec_keep_prob, sm, vi, om, ov);
    for (std::size_t b = 0; b < batch; ++b) {
      const double* x = xin + (b * steps + t) * hidden;
      double* m = om + b * hidden;
      for (std::size_t j = 0; j < hidden; ++j) m[j] += x[j];
    }
    moment_activation_batch(surrogate, om, ov, state);
  }
}

}  // namespace apds
