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

// The scalar tier's MCDrop epilogue: activate()'s libm expressions, defined
// in kernel_dispatch.cpp (libm calls break the kernel bodies' linkage rule
// and this TU's f32 purity).
void bias_act_f64_libm(double* y, const double* bias, std::size_t n,
                       std::size_t i0, std::size_t i1, std::size_t j0,
                       std::size_t j1, KernelAct act);

namespace {
KernelOps scalar_table() {
  KernelOps ops = scalar_impl::make_ops("scalar");
  ops.bias_act_f64 = &bias_act_f64_libm;
  return ops;
}
}  // namespace

const KernelOps& scalar_ops() {
  static const KernelOps ops = scalar_table();
  return ops;
}

}  // namespace apds::kernels
