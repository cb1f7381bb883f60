#include "tensor/gemm.h"

#include <algorithm>
#include <cstring>

#include "platform/thread_pool.h"

namespace apds {

namespace {
// Block sizes tuned for a typical 32 KiB L1 / 256 KiB L2; with 512-wide
// layers a full B-panel row fits comfortably.
constexpr std::size_t kBlockK = 64;

// Below this many flops per chunk, forking costs more than it saves.
constexpr std::size_t kMinFlopsPerChunk = 1 << 16;

// C[i0:i1, j0:j1] (+)= A[i0:i1, :] B[:, j0:j1]. The k-blocked accumulation
// order per output element is identical for every (i, j) partition, so any
// tiling of the output produces bit-identical results.
void gemm_tile(const double* ad, const double* bd, double* cd, std::size_t k,
               std::size_t n, bool accumulate, std::size_t i0, std::size_t i1,
               std::size_t j0, std::size_t j1) {
  if (!accumulate)
    for (std::size_t i = i0; i < i1; ++i)
      std::memset(cd + i * n + j0, 0, sizeof(double) * (j1 - j0));
  for (std::size_t k0 = 0; k0 < k; k0 += kBlockK) {
    const std::size_t k1 = std::min(k, k0 + kBlockK);
    for (std::size_t i = i0; i < i1; ++i) {
      double* crow = cd + i * n;
      const double* arow = ad + i * k;
      for (std::size_t kk = k0; kk < k1; ++kk) {
        const double aik = arow[kk];
        // Exact sentinel: dropout rows are literal zeros.
        // apds-lint: allow(float-equal)
        if (aik == 0.0) continue;
        const double* brow = bd + kk * n;
        for (std::size_t j = j0; j < j1; ++j) crow[j] += aik * brow[j];
      }
    }
  }
}

void gemm_impl(const Matrix& a, const Matrix& b, Matrix& c, bool accumulate) {
  const std::size_t m = a.rows();
  const std::size_t k = a.cols();
  const std::size_t n = b.cols();
  APDS_CHECK_MSG(b.rows() == k, "gemm: inner dims " << k << " vs " << b.rows());
  APDS_CHECK_MSG(c.rows() == m && c.cols() == n,
                 "gemm: output shape " << c.rows() << "x" << c.cols()
                                       << " != " << m << "x" << n);
  gemm_buffers(a.data(), b.data(), c.data(), m, k, n, accumulate);
}

// C[i,j] = sum_r A[r,i] * B[r,j]: iterate r outermost (rank-1 updates)
// within each worker's disjoint slice of C rows. Per-element accumulation
// stays in r order for any partition.
void gemm_tn_panel(const double* ad, const double* bd, double* cd,
                   std::size_t k, std::size_t m, std::size_t n, std::size_t i0,
                   std::size_t i1) {
  for (std::size_t i = i0; i < i1; ++i)
    std::memset(cd + i * n, 0, sizeof(double) * n);
  for (std::size_t r = 0; r < k; ++r) {
    const double* arow = ad + r * m;
    const double* brow = bd + r * n;
    for (std::size_t i = i0; i < i1; ++i) {
      const double ari = arow[i];
      // Exact sentinel as above. apds-lint: allow(float-equal)
      if (ari == 0.0) continue;
      double* crow = cd + i * n;
      for (std::size_t j = 0; j < n; ++j) crow[j] += ari * brow[j];
    }
  }
}

// C[i,j] = dot(A.row(i), B.row(j)): both operands row-contiguous.
void gemm_nt_panel(const double* ad, const double* bd, double* cd,
                   std::size_t k, std::size_t n, std::size_t i0,
                   std::size_t i1) {
  for (std::size_t i = i0; i < i1; ++i) {
    const double* arow = ad + i * k;
    double* crow = cd + i * n;
    for (std::size_t j = 0; j < n; ++j) {
      const double* brow = bd + j * k;
      double acc = 0;
      for (std::size_t kk = 0; kk < k; ++kk) acc += arow[kk] * brow[kk];
      crow[j] = acc;
    }
  }
}
}  // namespace

void gemm_buffers(const double* a, const double* b, double* c, std::size_t m,
                  std::size_t k, std::size_t n, bool accumulate) {
  // Rows are the natural unit of parallel work (disjoint C rows, A rows
  // read once per worker); for skinny batches — the single-input inference
  // shape is [1, 512] x [512, 512] — fall back to column panels of C,
  // which are equally disjoint.
  const std::size_t row_flops = 2 * k * n;
  if (m >= global_threads() || m >= n) {
    const std::size_t grain =
        std::max<std::size_t>(1, kMinFlopsPerChunk / (row_flops + 1));
    parallel_for(0, m, grain, [&](std::size_t i0, std::size_t i1) {
      gemm_tile(a, b, c, k, n, accumulate, i0, i1, 0, n);
    });
  } else {
    const std::size_t col_flops = 2 * m * k;
    const std::size_t grain =
        std::max<std::size_t>(16, kMinFlopsPerChunk / (col_flops + 1));
    parallel_for(0, n, grain, [&](std::size_t j0, std::size_t j1) {
      gemm_tile(a, b, c, k, n, accumulate, 0, m, j0, j1);
    });
  }
}

void gemm(const Matrix& a, const Matrix& b, Matrix& c) {
  gemm_impl(a, b, c, /*accumulate=*/false);
}

void gemm_acc(const Matrix& a, const Matrix& b, Matrix& c) {
  gemm_impl(a, b, c, /*accumulate=*/true);
}

void gemm_tn(const Matrix& a, const Matrix& b, Matrix& c) {
  const std::size_t k = a.rows();
  const std::size_t m = a.cols();
  const std::size_t n = b.cols();
  APDS_CHECK_MSG(b.rows() == k, "gemm_tn: inner dims");
  APDS_CHECK_MSG(c.rows() == m && c.cols() == n, "gemm_tn: output shape");
  const std::size_t row_flops = 2 * k * n;
  const std::size_t grain =
      std::max<std::size_t>(1, kMinFlopsPerChunk / (row_flops + 1));
  parallel_for(0, m, grain, [&](std::size_t i0, std::size_t i1) {
    gemm_tn_panel(a.data(), b.data(), c.data(), k, m, n, i0, i1);
  });
}

void gemm_nt(const Matrix& a, const Matrix& b, Matrix& c) {
  const std::size_t m = a.rows();
  const std::size_t k = a.cols();
  const std::size_t n = b.rows();
  APDS_CHECK_MSG(b.cols() == k, "gemm_nt: inner dims");
  APDS_CHECK_MSG(c.rows() == m && c.cols() == n, "gemm_nt: output shape");
  const std::size_t row_flops = 2 * k * n;
  const std::size_t grain =
      std::max<std::size_t>(1, kMinFlopsPerChunk / (row_flops + 1));
  parallel_for(0, m, grain, [&](std::size_t i0, std::size_t i1) {
    gemm_nt_panel(a.data(), b.data(), c.data(), k, n, i0, i1);
  });
}

Matrix matmul(const Matrix& a, const Matrix& b) {
  Matrix c(a.rows(), b.cols());
  gemm(a, b, c);
  return c;
}

}  // namespace apds
