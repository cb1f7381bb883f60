// Process-wide inference precision selection.
//
// The moment kernels exist in three widths: the f64 reference path
// (bit-identical across thread counts; on the scalar kernel tier,
// bit-identical to the plain f64 GEMM reference; used by training and all
// validation),
// an f32 fast path (packed single-precision weights + vectorized
// polynomial erf/exp, ~2x the SIMD lanes and half the memory traffic) and
// an i8 quantized path (per-output-channel symmetric weights, exact i32
// accumulation, hidden layers only — the final moment head stays f32; see
// docs/PERFORMANCE.md for the measured speedups and error bounds).
//
// Resolution precedence mirrors the thread-pool width:
//   set_global_precision() (the benches' --precision flag lands here)
//   > the APDS_PRECISION environment variable ("f32" | "f64" | "i8")
//   > Precision::kF64.
#pragma once

#include <string>

namespace apds {

enum class Precision {
  kF64 = 0,  ///< double everywhere — the reference path
  kF32 = 1,  ///< packed single-precision fast path
  kI8 = 2,   ///< quantized hidden layers, f32 final moment head
};

/// "f64" / "f32" / "i8" (flag spelling, also used in bench row names).
const char* precision_name(Precision p);

/// Parse "f32"/"f64"/"i8" (case-insensitive; also accepts
/// "float"/"double"/"int8"). Throws InvalidArgument on anything else.
Precision parse_precision(const std::string& name);

/// Pin the process-wide precision, overriding APDS_PRECISION.
void set_global_precision(Precision p);

/// Revert to the APDS_PRECISION / default resolution (mainly for tests).
void clear_global_precision();

/// The precision inference should run at, resolved per the precedence
/// above. An unparseable APDS_PRECISION value logs a warning and falls
/// back to f64.
Precision global_precision();

}  // namespace apds
