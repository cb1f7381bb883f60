#include "tensor/ops.h"

#include <algorithm>
#include <cmath>

#include "platform/thread_pool.h"

namespace apds {

namespace {
void check_same_shape(const Matrix& a, const Matrix& b, const char* op) {
  APDS_CHECK_MSG(a.same_shape(b), op << ": shape " << a.rows() << "x"
                                     << a.cols() << " vs " << b.rows() << "x"
                                     << b.cols());
}

// Elementwise kernels are memory-bound; only fork for ranges big enough
// that the dispatch cost disappears in the noise.
constexpr std::size_t kElementwiseGrain = 1 << 15;
}  // namespace

Matrix add(const Matrix& a, const Matrix& b) {
  Matrix out = a;
  add_inplace(out, b);
  return out;
}

Matrix sub(const Matrix& a, const Matrix& b) {
  Matrix out = a;
  sub_inplace(out, b);
  return out;
}

Matrix hadamard(const Matrix& a, const Matrix& b) {
  Matrix out = a;
  hadamard_inplace(out, b);
  return out;
}

Matrix scale(const Matrix& a, double s) {
  Matrix out = a;
  scale_inplace(out, s);
  return out;
}

Matrix square(const Matrix& a) { return hadamard(a, a); }

void add_inplace(Matrix& a, const Matrix& b) {
  check_same_shape(a, b, "add");
  double* ad = a.data();
  const double* bd = b.data();
  parallel_for(0, a.size(), kElementwiseGrain,
               [&](std::size_t lo, std::size_t hi) {
                 for (std::size_t i = lo; i < hi; ++i) ad[i] += bd[i];
               });
}

void sub_inplace(Matrix& a, const Matrix& b) {
  check_same_shape(a, b, "sub");
  double* ad = a.data();
  const double* bd = b.data();
  parallel_for(0, a.size(), kElementwiseGrain,
               [&](std::size_t lo, std::size_t hi) {
                 for (std::size_t i = lo; i < hi; ++i) ad[i] -= bd[i];
               });
}

void hadamard_inplace(Matrix& a, const Matrix& b) {
  check_same_shape(a, b, "hadamard");
  double* ad = a.data();
  const double* bd = b.data();
  parallel_for(0, a.size(), kElementwiseGrain,
               [&](std::size_t lo, std::size_t hi) {
                 for (std::size_t i = lo; i < hi; ++i) ad[i] *= bd[i];
               });
}

void scale_inplace(Matrix& a, double s) {
  double* ad = a.data();
  parallel_for(0, a.size(), kElementwiseGrain,
               [&](std::size_t lo, std::size_t hi) {
                 for (std::size_t i = lo; i < hi; ++i) ad[i] *= s;
               });
}

void add_row_broadcast(Matrix& a, const Matrix& row) {
  APDS_CHECK_MSG(row.rows() == 1 && row.cols() == a.cols(),
                 "add_row_broadcast: row shape");
  double* ad = a.data();
  const double* rd = row.data();
  const std::size_t cols = a.cols();
  const std::size_t grain =
      std::max<std::size_t>(1, kElementwiseGrain / (cols + 1));
  parallel_for(0, a.rows(), grain, [&](std::size_t r0, std::size_t r1) {
    for (std::size_t r = r0; r < r1; ++r) {
      double* ar = ad + r * cols;
      for (std::size_t c = 0; c < cols; ++c) ar[c] += rd[c];
    }
  });
}

void mul_row_broadcast(Matrix& a, const Matrix& row) {
  APDS_CHECK_MSG(row.rows() == 1 && row.cols() == a.cols(),
                 "mul_row_broadcast: row shape");
  const double* rd = row.data();
  for (std::size_t r = 0; r < a.rows(); ++r) {
    double* ar = a.data() + r * a.cols();
    for (std::size_t c = 0; c < a.cols(); ++c) ar[c] *= rd[c];
  }
}

Matrix map(const Matrix& a, const std::function<double(double)>& f) {
  Matrix out = a;
  map_inplace(out, f);
  return out;
}

void map_inplace(Matrix& a, const std::function<double(double)>& f) {
  for (double& v : a.flat()) v = f(v);
}

double sum(const Matrix& a) {
  double acc = 0.0;
  for (double v : a.flat()) acc += v;
  return acc;
}

double mean(const Matrix& a) {
  APDS_CHECK(!a.empty());
  return sum(a) / static_cast<double>(a.size());
}

Matrix col_sums(const Matrix& a) {
  Matrix out(1, a.cols());
  double* od = out.data();
  for (std::size_t r = 0; r < a.rows(); ++r) {
    const double* ar = a.data() + r * a.cols();
    for (std::size_t c = 0; c < a.cols(); ++c) od[c] += ar[c];
  }
  return out;
}

Matrix col_means(const Matrix& a) {
  APDS_CHECK(a.rows() > 0);
  Matrix out = col_sums(a);
  scale_inplace(out, 1.0 / static_cast<double>(a.rows()));
  return out;
}

Matrix col_stddevs(const Matrix& a) {
  APDS_CHECK(a.rows() > 0);
  const Matrix mu = col_means(a);
  Matrix acc(1, a.cols());
  for (std::size_t r = 0; r < a.rows(); ++r) {
    for (std::size_t c = 0; c < a.cols(); ++c) {
      const double d = a(r, c) - mu(0, c);
      acc(0, c) += d * d;
    }
  }
  for (std::size_t c = 0; c < a.cols(); ++c)
    acc(0, c) = std::sqrt(acc(0, c) / static_cast<double>(a.rows()));
  return acc;
}

bool all_finite(const Matrix& a) {
  for (const double v : a.flat())
    if (!std::isfinite(v)) return false;
  return true;
}

double max_abs_diff(const Matrix& a, const Matrix& b) {
  check_same_shape(a, b, "max_abs_diff");
  double m = 0.0;
  const double* ad = a.data();
  const double* bd = b.data();
  for (std::size_t i = 0; i < a.size(); ++i)
    m = std::max(m, std::fabs(ad[i] - bd[i]));
  return m;
}

double max_abs_diff(const MatrixF& a, const MatrixF& b) {
  APDS_CHECK_MSG(a.same_shape(b), "max_abs_diff: shape mismatch");
  double m = 0.0;
  const float* ad = a.data();
  const float* bd = b.data();
  for (std::size_t i = 0; i < a.size(); ++i)
    m = std::max(m, std::fabs(static_cast<double>(ad[i]) -
                              static_cast<double>(bd[i])));
  return m;
}

std::size_t argmax_row(const Matrix& a, std::size_t r) {
  APDS_CHECK(r < a.rows() && a.cols() > 0);
  std::size_t best = 0;
  for (std::size_t c = 1; c < a.cols(); ++c)
    if (a(r, c) > a(r, best)) best = c;
  return best;
}

}  // namespace apds
