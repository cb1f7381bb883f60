#include "tensor/kernels/kernel_dispatch.h"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cmath>
#include <cstdlib>

#include "common/error.h"
#include "common/logging.h"

// The AVX tiers are only compiled on x86-64 (src/tensor/CMakeLists.txt);
// elsewhere every level maps to the scalar table and the probe reports
// scalar, so the dispatch seam still exists — it just has one tier.
#if defined(__x86_64__) || defined(__i386__)
#define APDS_KERNELS_X86 1
#else
#define APDS_KERNELS_X86 0
#endif

namespace apds {

namespace kernels {
const KernelOps& scalar_ops();
#if APDS_KERNELS_X86
const KernelOps& avx2_ops();
const KernelOps& avx512_ops();
#endif

namespace {
/// row[j] = f(row[j] + bias[j]) over the panel.
template <typename F>
void bias_act_rows(double* y, const double* bias, std::size_t n,
                   std::size_t i0, std::size_t i1, std::size_t j0,
                   std::size_t j1, F f) {
  for (std::size_t i = i0; i < i1; ++i) {
    double* row = y + i * n;
    for (std::size_t j = j0; j < j1; ++j) row[j] = f(row[j] + bias[j]);
  }
}
}  // namespace

// The scalar tier's bias_act_f64 (kernels_scalar.cpp binds it): per element
// the bias add of add_row_broadcast, then activate()'s expression (libm
// tanh, and stats/special.cpp's two-sided sigmoid), so the scalar stacked
// MCDrop pass is bit-identical to Mlp::forward_stochastic. Compiled here
// with the default flags, outside the kernel bodies.
void bias_act_f64_libm(double* y, const double* bias, std::size_t n,
                       std::size_t i0, std::size_t i1, std::size_t j0,
                       std::size_t j1, KernelAct act) {
  switch (act) {
    case KernelAct::kIdentity:
      return bias_act_rows(y, bias, n, i0, i1, j0, j1,
                           [](double x) { return x; });
    case KernelAct::kRelu:
      return bias_act_rows(y, bias, n, i0, i1, j0, j1,
                           [](double x) { return x > 0.0 ? x : 0.0; });
    case KernelAct::kTanh:
      return bias_act_rows(y, bias, n, i0, i1, j0, j1,
                           [](double x) { return std::tanh(x); });
    case KernelAct::kSigmoid:
      return bias_act_rows(y, bias, n, i0, i1, j0, j1, [](double x) {
        if (x >= 0.0) return 1.0 / (1.0 + std::exp(-x));
        const double e = std::exp(x);
        return e / (1.0 + e);
      });
  }
}
}  // namespace kernels

namespace {

// -1 = unresolved: consult APDS_KERNEL on the next global_kernel_backend().
std::atomic<int> g_backend{-1};

KernelBackend probe_best() {
#if APDS_KERNELS_X86
  // The avx512 TU is built for the Skylake-X set (F+BW+DQ+VL); probe all
  // four so a hypothetical F-only part (Xeon Phi) falls back to avx2
  // instead of faulting on a vpmaddwd.
  if (__builtin_cpu_supports("avx512f") &&
      __builtin_cpu_supports("avx512bw") &&
      __builtin_cpu_supports("avx512dq") && __builtin_cpu_supports("avx512vl"))
    return KernelBackend::kAvx512;
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma"))
    return KernelBackend::kAvx2;
#endif
  return KernelBackend::kScalar;
}

}  // namespace

const char* kernel_backend_name(KernelBackend b) {
  switch (b) {
    case KernelBackend::kAvx512:
      return "avx512";
    case KernelBackend::kAvx2:
      return "avx2";
    default:
      return "scalar";
  }
}

KernelBackend parse_kernel_backend(const std::string& name) {
  std::string lower = name;
  std::transform(lower.begin(), lower.end(), lower.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  if (lower == "scalar" || lower == "sse2") return KernelBackend::kScalar;
  if (lower == "avx2") return KernelBackend::kAvx2;
  if (lower == "avx512") return KernelBackend::kAvx512;
  throw InvalidArgument("kernel backend: unknown value '" + name +
                        "' (want scalar|avx2|avx512)");
}

KernelBackend best_supported_backend() {
  // CPUID never changes under a process; probe once.
  static const KernelBackend best = probe_best();
  return best;
}

bool kernel_backend_supported(KernelBackend b) {
  // Tiers are ordered: every CPU at level L executes all levels <= L.
  return static_cast<int>(b) <= static_cast<int>(best_supported_backend());
}

void set_global_kernel_backend(KernelBackend b) {
  if (!kernel_backend_supported(b)) {
    APDS_WARN("kernel backend '" << kernel_backend_name(b)
                                 << "' not supported by this CPU; using '"
                                 << kernel_backend_name(
                                        best_supported_backend())
                                 << "'");
    b = best_supported_backend();
  }
  g_backend.store(static_cast<int>(b), std::memory_order_relaxed);
}

void clear_global_kernel_backend() {
  g_backend.store(-1, std::memory_order_relaxed);
}

KernelBackend global_kernel_backend() {
  const int v = g_backend.load(std::memory_order_relaxed);
  if (v >= 0) return static_cast<KernelBackend>(v);
  KernelBackend b = best_supported_backend();
  if (const char* env = std::getenv("APDS_KERNEL")) {
    try {
      const KernelBackend requested = parse_kernel_backend(env);
      if (kernel_backend_supported(requested)) {
        b = requested;
      } else {
        APDS_WARN("APDS_KERNEL='" << env
                                  << "' not supported by this CPU; using '"
                                  << kernel_backend_name(b) << "'");
      }
    } catch (const InvalidArgument&) {
      APDS_WARN("APDS_KERNEL='" << env
                                << "' ignored (want scalar|avx2|avx512)");
    }
  }
  // Cache the resolution; a concurrent first call resolves identically.
  g_backend.store(static_cast<int>(b), std::memory_order_relaxed);
  return b;
}

const KernelOps& kernel_ops(KernelBackend b) {
  if (!kernel_backend_supported(b)) return kernels::scalar_ops();
#if APDS_KERNELS_X86
  switch (b) {
    case KernelBackend::kAvx512:
      return kernels::avx512_ops();
    case KernelBackend::kAvx2:
      return kernels::avx2_ops();
    default:
      return kernels::scalar_ops();
  }
#else
  return kernels::scalar_ops();
#endif
}

const KernelOps& kernel_ops() { return kernel_ops(global_kernel_backend()); }

}  // namespace apds
