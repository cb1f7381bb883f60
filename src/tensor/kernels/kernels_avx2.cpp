// AVX2+FMA kernel tier: the shared body compiled with -mavx2 -mfma (see
// src/tensor/CMakeLists.txt — only the kernels_*.cpp TUs may carry -m ISA
// flags, enforced by apds_lint). The dispatcher binds this table only
// after __builtin_cpu_supports confirms the CPU executes AVX2 and FMA, so
// the binary stays safe on SSE2-only devices.
//
// fast_math_body.inl is included INSIDE the tier namespace (not via
// stats/fast_math.h) so the AVX2-encoded transcendentals are private
// symbols of this tier and can never be comdat-merged into the scalar
// tier — see the linkage rule in kernel_body.inl.
#include <cstddef>
#include <cstdint>
#include <cstring>

#include "tensor/kernels/kernel_dispatch.h"

namespace apds::kernels {

namespace avx2_impl {
#include "stats/fast_math_body.inl"
#include "tensor/kernels/kernel_body.inl"
#include "tensor/kernels/kernel_body_f64.inl"
}  // namespace avx2_impl

const KernelOps& avx2_ops() {
  static const KernelOps ops = avx2_impl::make_ops("avx2");
  return ops;
}

}  // namespace apds::kernels
