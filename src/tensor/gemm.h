// General matrix multiply kernels.
//
// Cache-blocked, i-k-j loop order so the inner loop is a contiguous
// axpy over the output row — this auto-vectorizes well and is the
// backbone of training and of the nn forward passes.
//
// This is the f64 reference/training path (nn, the trainer, the
// per-sample Mlp::forward_stochastic; default flags, bit-identical to
// previous releases), parallelized over the shared pool with
// partition-independent results. The moment passes do not run here:
// ApDeepSense's f64 and f32 engines use the dispatched moment tiles, and
// batched MCDrop the dispatched f64 GEMM tile
// (tensor/kernels/kernel_dispatch.h), whose scalar tier is bit-identical
// to gemm_buffers below.
#pragma once

#include "tensor/matrix.h"

namespace apds {

/// C (+)= A * B on raw row-major buffers: [m,k] x [k,n] -> [m,n]. The
/// Matrix overloads below delegate here after shape checks, so results are
/// bit-identical between the two entry points; sessions call this form
/// directly with arena-resident slices to keep the hot path allocation-free.
void gemm_buffers(const double* a, const double* b, double* c, std::size_t m,
                  std::size_t k, std::size_t n, bool accumulate);

/// C = A * B. Shapes: [m,k] x [k,n] -> [m,n]. C is overwritten.
void gemm(const Matrix& a, const Matrix& b, Matrix& c);

/// C += A * B (accumulating variant).
void gemm_acc(const Matrix& a, const Matrix& b, Matrix& c);

/// C = A^T * B. Shapes: [k,m] x [k,n] -> [m,n]. Used for weight gradients.
void gemm_tn(const Matrix& a, const Matrix& b, Matrix& c);

/// C = A * B^T. Shapes: [m,k] x [n,k] -> [m,n]. Used for input gradients.
void gemm_nt(const Matrix& a, const Matrix& b, Matrix& c);

/// Convenience: returns A * B by value.
Matrix matmul(const Matrix& a, const Matrix& b);

}  // namespace apds
