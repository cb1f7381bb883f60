#include "tensor/gemm.h"

#include <cstring>
#include <type_traits>

#include "platform/thread_pool.h"
#include "tensor/kernels/kernel_dispatch.h"

namespace apds {

namespace {
// Block sizes tuned for a typical 32 KiB L1 / 256 KiB L2; with 512-wide
// layers a full B-panel row fits comfortably. Shared by both scalar widths
// so the f32 path keeps the exact k-accumulation order of the f64 path.
constexpr std::size_t kBlockK = 64;

// Below this many flops per chunk, forking costs more than it saves.
constexpr std::size_t kMinFlopsPerChunk = 1 << 16;

// C[i0:i1, j0:j1] (+)= A[i0:i1, :] B[:, j0:j1]. The k-blocked accumulation
// order per output element is identical for every (i, j) partition, so any
// tiling of the output produces bit-identical results. The f64 reference
// keeps this TU's default flags; the f32 twin lives in the dispatched
// kernel tiers (tensor/kernels/) and is selected per CPU at runtime.
template <typename T>
void gemm_tile(const T* ad, const T* bd, T* cd, std::size_t k, std::size_t n,
               bool accumulate, std::size_t i0, std::size_t i1, std::size_t j0,
               std::size_t j1) {
  if (!accumulate)
    for (std::size_t i = i0; i < i1; ++i)
      std::memset(cd + i * n + j0, 0, sizeof(T) * (j1 - j0));
  for (std::size_t k0 = 0; k0 < k; k0 += kBlockK) {
    const std::size_t k1 = std::min(k, k0 + kBlockK);
    for (std::size_t i = i0; i < i1; ++i) {
      T* crow = cd + i * n;
      const T* arow = ad + i * k;
      for (std::size_t kk = k0; kk < k1; ++kk) {
        const T aik = arow[kk];
        if (aik == T(0)) continue;  // dropout rows are exactly zero
        const T* brow = bd + kk * n;
        for (std::size_t j = j0; j < j1; ++j) crow[j] += aik * brow[j];
      }
    }
  }
}

template <typename T>
void gemm_buffers_impl(const T* ad, const T* bd, T* cd, std::size_t m,
                       std::size_t k, std::size_t n, bool accumulate) {
  // Resolve the kernel table once per call, not per tile (atomic load).
  [[maybe_unused]] const KernelOps* ops = nullptr;
  if constexpr (std::is_same_v<T, float>) ops = &kernel_ops();
  const auto tile = [&](std::size_t i0, std::size_t i1, std::size_t j0,
                        std::size_t j1) {
    if constexpr (std::is_same_v<T, float>)
      ops->gemm_tile_f32(ad, bd, cd, k, n, accumulate, i0, i1, j0, j1);
    else
      gemm_tile(ad, bd, cd, k, n, accumulate, i0, i1, j0, j1);
  };
  // Rows are the natural unit of parallel work (disjoint C rows, A rows
  // read once per worker); for skinny batches — the single-input inference
  // shape is [1, 512] x [512, 512] — fall back to column panels of C,
  // which are equally disjoint.
  const std::size_t row_flops = 2 * k * n;
  if (m >= global_threads() || m >= n) {
    const std::size_t grain =
        std::max<std::size_t>(1, kMinFlopsPerChunk / (row_flops + 1));
    parallel_for(0, m, grain, [&](std::size_t i0, std::size_t i1) {
      tile(i0, i1, 0, n);
    });
  } else {
    const std::size_t col_flops = 2 * m * k;
    const std::size_t grain =
        std::max<std::size_t>(16, kMinFlopsPerChunk / (col_flops + 1));
    parallel_for(0, n, grain, [&](std::size_t j0, std::size_t j1) {
      tile(0, m, j0, j1);
    });
  }
}

template <typename T>
void gemm_impl(const MatrixT<T>& a, const MatrixT<T>& b, MatrixT<T>& c,
               bool accumulate) {
  const std::size_t m = a.rows();
  const std::size_t k = a.cols();
  const std::size_t n = b.cols();
  APDS_CHECK_MSG(b.rows() == k, "gemm: inner dims " << k << " vs " << b.rows());
  APDS_CHECK_MSG(c.rows() == m && c.cols() == n,
                 "gemm: output shape " << c.rows() << "x" << c.cols()
                                       << " != " << m << "x" << n);
  gemm_buffers_impl(a.data(), b.data(), c.data(), m, k, n, accumulate);
}

// C[i,j] = sum_r A[r,i] * B[r,j]: iterate r outermost (rank-1 updates)
// within each worker's disjoint slice of C rows. Per-element accumulation
// stays in r order for any partition.
template <typename T>
void gemm_tn_panel(const T* ad, const T* bd, T* cd, std::size_t k,
                   std::size_t m, std::size_t n, std::size_t i0,
                   std::size_t i1) {
  for (std::size_t i = i0; i < i1; ++i)
    std::memset(cd + i * n, 0, sizeof(T) * n);
  for (std::size_t r = 0; r < k; ++r) {
    const T* arow = ad + r * m;
    const T* brow = bd + r * n;
    for (std::size_t i = i0; i < i1; ++i) {
      const T ari = arow[i];
      if (ari == T(0)) continue;
      T* crow = cd + i * n;
      for (std::size_t j = 0; j < n; ++j) crow[j] += ari * brow[j];
    }
  }
}

template <typename T>
void gemm_tn_impl(const MatrixT<T>& a, const MatrixT<T>& b, MatrixT<T>& c) {
  const std::size_t k = a.rows();
  const std::size_t m = a.cols();
  const std::size_t n = b.cols();
  APDS_CHECK_MSG(b.rows() == k, "gemm_tn: inner dims");
  APDS_CHECK_MSG(c.rows() == m && c.cols() == n, "gemm_tn: output shape");

  const T* ad = a.data();
  const T* bd = b.data();
  T* cd = c.data();
  [[maybe_unused]] const KernelOps* ops = nullptr;
  if constexpr (std::is_same_v<T, float>) ops = &kernel_ops();
  const std::size_t row_flops = 2 * k * n;
  const std::size_t grain =
      std::max<std::size_t>(1, kMinFlopsPerChunk / (row_flops + 1));
  parallel_for(0, m, grain, [&](std::size_t i0, std::size_t i1) {
    if constexpr (std::is_same_v<T, float>)
      ops->gemm_tn_panel_f32(ad, bd, cd, k, m, n, i0, i1);
    else
      gemm_tn_panel(ad, bd, cd, k, m, n, i0, i1);
  });
}

// C[i,j] = dot(A.row(i), B.row(j)): both operands row-contiguous.
template <typename T>
void gemm_nt_panel(const T* ad, const T* bd, T* cd, std::size_t k,
                   std::size_t n, std::size_t i0, std::size_t i1) {
  for (std::size_t i = i0; i < i1; ++i) {
    const T* arow = ad + i * k;
    T* crow = cd + i * n;
    for (std::size_t j = 0; j < n; ++j) {
      const T* brow = bd + j * k;
      T acc = 0;
      for (std::size_t kk = 0; kk < k; ++kk) acc += arow[kk] * brow[kk];
      crow[j] = acc;
    }
  }
}

template <typename T>
void gemm_nt_impl(const MatrixT<T>& a, const MatrixT<T>& b, MatrixT<T>& c) {
  const std::size_t m = a.rows();
  const std::size_t k = a.cols();
  const std::size_t n = b.rows();
  APDS_CHECK_MSG(b.cols() == k, "gemm_nt: inner dims");
  APDS_CHECK_MSG(c.rows() == m && c.cols() == n, "gemm_nt: output shape");

  const T* ad = a.data();
  const T* bd = b.data();
  T* cd = c.data();
  [[maybe_unused]] const KernelOps* ops = nullptr;
  if constexpr (std::is_same_v<T, float>) ops = &kernel_ops();
  const std::size_t row_flops = 2 * k * n;
  const std::size_t grain =
      std::max<std::size_t>(1, kMinFlopsPerChunk / (row_flops + 1));
  parallel_for(0, m, grain, [&](std::size_t i0, std::size_t i1) {
    if constexpr (std::is_same_v<T, float>)
      ops->gemm_nt_panel_f32(ad, bd, cd, k, n, i0, i1);
    else
      gemm_nt_panel(ad, bd, cd, k, n, i0, i1);
  });
}
}  // namespace

void gemm_buffers(const double* a, const double* b, double* c, std::size_t m,
                  std::size_t k, std::size_t n, bool accumulate) {
  gemm_buffers_impl(a, b, c, m, k, n, accumulate);
}

void gemm_buffers(const float* a, const float* b, float* c, std::size_t m,
                  std::size_t k, std::size_t n, bool accumulate) {
  gemm_buffers_impl(a, b, c, m, k, n, accumulate);
}

void gemm(const Matrix& a, const Matrix& b, Matrix& c) {
  gemm_impl(a, b, c, /*accumulate=*/false);
}

void gemm(const MatrixF& a, const MatrixF& b, MatrixF& c) {
  gemm_impl(a, b, c, /*accumulate=*/false);
}

void gemm_acc(const Matrix& a, const Matrix& b, Matrix& c) {
  gemm_impl(a, b, c, /*accumulate=*/true);
}

void gemm_acc(const MatrixF& a, const MatrixF& b, MatrixF& c) {
  gemm_impl(a, b, c, /*accumulate=*/true);
}

void gemm_tn(const Matrix& a, const Matrix& b, Matrix& c) {
  gemm_tn_impl(a, b, c);
}

void gemm_tn(const MatrixF& a, const MatrixF& b, MatrixF& c) {
  gemm_tn_impl(a, b, c);
}

void gemm_nt(const Matrix& a, const Matrix& b, Matrix& c) {
  gemm_nt_impl(a, b, c);
}

void gemm_nt(const MatrixF& a, const MatrixF& b, MatrixF& c) {
  gemm_nt_impl(a, b, c);
}

Matrix matmul(const Matrix& a, const Matrix& b) {
  Matrix c(a.rows(), b.cols());
  gemm(a, b, c);
  return c;
}

MatrixF matmul(const MatrixF& a, const MatrixF& b) {
  MatrixF c(a.rows(), b.cols());
  gemm(a, b, c);
  return c;
}

}  // namespace apds
