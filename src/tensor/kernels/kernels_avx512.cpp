// AVX-512F kernel tier: the shared body compiled with -mavx512f (plus the
// AVX2+FMA baseline flags; see src/tensor/CMakeLists.txt). Bound only
// when __builtin_cpu_supports("avx512f") confirms the CPU executes it.
//
// fast_math_body.inl is included INSIDE the tier namespace (not via
// stats/fast_math.h) so the EVEX-encoded transcendentals are private
// symbols of this tier and can never be comdat-merged into the scalar
// tier — see the linkage rule in kernel_body.inl.
#include <cstddef>
#include <cstdint>
#include <cstring>

#include "tensor/kernels/kernel_dispatch.h"

namespace apds::kernels {

namespace avx512_impl {
#include "stats/fast_math_body.inl"
#include "tensor/kernels/kernel_body.inl"
#include "tensor/kernels/kernel_body_f64.inl"
}  // namespace avx512_impl

const KernelOps& avx512_ops() {
  static const KernelOps ops = avx512_impl::make_ops("avx512");
  return ops;
}

}  // namespace apds::kernels
