// Elementwise and broadcasting operations on Matrix.
#pragma once

#include <functional>

#include "tensor/matrix.h"

namespace apds {

/// out = a + b (same shape).
Matrix add(const Matrix& a, const Matrix& b);

/// out = a - b (same shape).
Matrix sub(const Matrix& a, const Matrix& b);

/// out = a ∘ b, elementwise (Hadamard) product.
Matrix hadamard(const Matrix& a, const Matrix& b);

/// out = a * scalar.
Matrix scale(const Matrix& a, double s);

/// out = a ∘ a (the paper's X^2 notation).
Matrix square(const Matrix& a);

/// Scalar squares: what the pow-square lint rule asks for in place of
/// std::pow(x, 2).
constexpr double square(double x) { return x * x; }
constexpr float square(float x) { return x * x; }

/// a += b, in place.
void add_inplace(Matrix& a, const Matrix& b);

/// a -= b, in place.
void sub_inplace(Matrix& a, const Matrix& b);

/// a ∘= b, in place.
void hadamard_inplace(Matrix& a, const Matrix& b);

/// a *= s, in place.
void scale_inplace(Matrix& a, double s);

/// Add a 1 x cols row vector to every row of `a` (bias broadcast).
void add_row_broadcast(Matrix& a, const Matrix& row);

/// Multiply every row of `a` elementwise by a 1 x cols row vector.
void mul_row_broadcast(Matrix& a, const Matrix& row);

/// Apply `f` to every element, returning a new matrix.
Matrix map(const Matrix& a, const std::function<double(double)>& f);

/// Apply `f` to every element in place.
void map_inplace(Matrix& a, const std::function<double(double)>& f);

/// Sum of all elements.
double sum(const Matrix& a);

/// Mean of all elements.
double mean(const Matrix& a);

/// Column-wise sums as a 1 x cols matrix (bias gradients).
Matrix col_sums(const Matrix& a);

/// Column-wise means as a 1 x cols matrix.
Matrix col_means(const Matrix& a);

/// Column-wise population standard deviations as a 1 x cols matrix.
Matrix col_stddevs(const Matrix& a);

/// Max absolute difference between two same-shaped matrices.
double max_abs_diff(const Matrix& a, const Matrix& b);

/// Whether every element is finite (no NaN, no +-Inf).
bool all_finite(const Matrix& a);

/// Index of the maximum element in row r.
std::size_t argmax_row(const Matrix& a, std::size_t r);

/// Single-precision max_abs_diff, for diffing f32 engine outputs.
double max_abs_diff(const MatrixF& a, const MatrixF& b);

}  // namespace apds
