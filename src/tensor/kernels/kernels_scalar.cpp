// Baseline kernel tier: the shared body compiled with the project-default
// flags (SSE2 on x86-64). Always registered; the agreement tests and the
// APDS_KERNEL=scalar CI job treat this TU as the reference the wider
// tiers must match. Compiled with -fno-trapping-math like the other tiers
// so the fast_math polynomial compares if-convert and vectorize (values
// are unaffected; see src/tensor/CMakeLists.txt).
//
// fast_math_body.inl is included INSIDE the tier namespace (not via
// stats/fast_math.h) so this TU's transcendentals are private symbols of
// this tier — see the linkage rule in kernel_body.inl.
#include <cstddef>
#include <cstdint>
#include <cstring>

#include "tensor/kernels/kernel_dispatch.h"

namespace apds::kernels {

namespace scalar_impl {
#include "stats/fast_math_body.inl"
#include "tensor/kernels/kernel_body.inl"
#include "tensor/kernels/kernel_body_f64.inl"
}  // namespace scalar_impl

const KernelOps& scalar_ops() {
  static const KernelOps ops = scalar_impl::make_ops("scalar");
  return ops;
}

}  // namespace apds::kernels
