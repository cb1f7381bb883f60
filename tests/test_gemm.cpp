#include "tensor/gemm.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "tensor/ops.h"

namespace apds {
namespace {

Matrix random_matrix(std::size_t r, std::size_t c, Rng& rng) {
  Matrix m(r, c);
  for (double& v : m.flat()) v = rng.normal();
  return m;
}

// Reference triple-loop product for cross-checking the blocked kernel.
Matrix naive_matmul(const Matrix& a, const Matrix& b) {
  Matrix c(a.rows(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t j = 0; j < b.cols(); ++j) {
      double acc = 0.0;
      for (std::size_t k = 0; k < a.cols(); ++k) acc += a(i, k) * b(k, j);
      c(i, j) = acc;
    }
  return c;
}

TEST(Gemm, SmallKnownProduct) {
  Matrix a{{1.0, 2.0}, {3.0, 4.0}};
  Matrix b{{5.0, 6.0}, {7.0, 8.0}};
  Matrix c = matmul(a, b);
  EXPECT_EQ(c(0, 0), 19.0);
  EXPECT_EQ(c(0, 1), 22.0);
  EXPECT_EQ(c(1, 0), 43.0);
  EXPECT_EQ(c(1, 1), 50.0);
}

TEST(Gemm, IdentityIsNeutral) {
  Rng rng(5);
  Matrix a = random_matrix(4, 4, rng);
  Matrix eye(4, 4);
  for (std::size_t i = 0; i < 4; ++i) eye(i, i) = 1.0;
  EXPECT_LT(max_abs_diff(matmul(a, eye), a), 1e-12);
  EXPECT_LT(max_abs_diff(matmul(eye, a), a), 1e-12);
}

TEST(Gemm, MatchesNaiveOnRandomShapes) {
  Rng rng(7);
  const std::size_t shapes[][3] = {
      {1, 1, 1}, {3, 5, 2}, {17, 33, 9}, {64, 64, 64}, {70, 130, 65}};
  for (const auto& s : shapes) {
    Matrix a = random_matrix(s[0], s[1], rng);
    Matrix b = random_matrix(s[1], s[2], rng);
    EXPECT_LT(max_abs_diff(matmul(a, b), naive_matmul(a, b)), 1e-9)
        << s[0] << "x" << s[1] << "x" << s[2];
  }
}

TEST(Gemm, AccumulateAddsOntoC) {
  Rng rng(9);
  Matrix a = random_matrix(4, 6, rng);
  Matrix b = random_matrix(6, 3, rng);
  Matrix c(4, 3, 1.0);
  gemm_acc(a, b, c);
  Matrix expected = naive_matmul(a, b);
  for (double& v : expected.flat()) v += 1.0;
  EXPECT_LT(max_abs_diff(c, expected), 1e-10);
}

TEST(Gemm, TransposedAMatchesExplicitTranspose) {
  Rng rng(11);
  Matrix a = random_matrix(8, 5, rng);  // A^T is 5x8
  Matrix b = random_matrix(8, 7, rng);
  Matrix c(5, 7);
  gemm_tn(a, b, c);
  EXPECT_LT(max_abs_diff(c, naive_matmul(a.transposed(), b)), 1e-10);
}

TEST(Gemm, TransposedBMatchesExplicitTranspose) {
  Rng rng(13);
  Matrix a = random_matrix(6, 5, rng);
  Matrix b = random_matrix(9, 5, rng);  // B^T is 5x9
  Matrix c(6, 9);
  gemm_nt(a, b, c);
  EXPECT_LT(max_abs_diff(c, naive_matmul(a, b.transposed())), 1e-10);
}

TEST(Gemm, ShapeMismatchThrows) {
  Matrix a(2, 3);
  Matrix b(4, 5);
  Matrix c(2, 5);
  EXPECT_THROW(gemm(a, b, c), InvalidArgument);
  Matrix b2(3, 5);
  Matrix c_bad(3, 5);
  EXPECT_THROW(gemm(a, b2, c_bad), InvalidArgument);
}

TEST(Gemm, ZeroRowsInAAreSkippedCorrectly) {
  // The kernel short-circuits aik == 0 (dropout rows); ensure correctness.
  Rng rng(15);
  Matrix a = random_matrix(6, 8, rng);
  for (std::size_t k = 0; k < 8; k += 2)
    for (std::size_t i = 0; i < 6; ++i) a(i, k) = 0.0;
  Matrix b = random_matrix(8, 4, rng);
  EXPECT_LT(max_abs_diff(matmul(a, b), naive_matmul(a, b)), 1e-10);
}

TEST(Gemm, OneByN) {
  Rng rng(17);
  Matrix a = random_matrix(1, 100, rng);
  Matrix b = random_matrix(100, 50, rng);
  EXPECT_LT(max_abs_diff(matmul(a, b), naive_matmul(a, b)), 1e-9);
}

}  // namespace
}  // namespace apds
