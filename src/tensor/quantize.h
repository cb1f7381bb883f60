// Symmetric int8 quantization for the i8 inference path.
//
// Weights are quantized ONCE at pack time with per-output-channel
// (per-column) scales — one outlier channel then cannot crush the
// resolution of every other channel, which is what makes post-training
// symmetric i8 usable on trained MLPs without calibration data.
// Activations (the prepped moment_linear inputs) are quantized per row at
// inference time with a dynamic scale, since their range varies with the
// input. Accumulation happens in exact i32 inside the dispatched kernels
// (tensor/kernels/), and dequantization multiplies the two scales back in.
//
// q = round(x / scale) clamped to [-127, 127]; -128 is never produced so
// |q| * |q| stays inside 16 bits of headroom and negation is exact.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "tensor/matrix.h"

namespace apds {

/// An i8 matrix with one symmetric scale per column (output channel):
/// dequant(i, j) = data[i * cols + j] * scale[j].
struct QuantizedMatrix {
  std::size_t rows = 0;
  std::size_t cols = 0;
  std::vector<std::int8_t> data;  ///< row-major [rows x cols]
  std::vector<float> scale;       ///< [cols] dequantization multipliers
};

/// Quantize an f64 matrix with per-column symmetric scales
/// (scale[j] = max_i |m(i,j)| / 127). A column too small for 127 / max to
/// be a finite f32 (all zero, or max below ~3.7e-37) quantizes to zeros
/// with scale 1; a column holding NaN, ±inf or a magnitude beyond FLT_MAX
/// gets zeros with scale NaN.
QuantizedMatrix quantize_per_col(const Matrix& m);

/// Dynamic per-row activation quantization: *scale = max_i |x[i]| / 127,
/// q[i] = round(x[i] / *scale). Exact for zero entries, so dropout-zeroed
/// lanes stay exactly zero. Degenerate rows never cast a non-finite value:
/// a row whose 127 / max overflows f32 (all zero, or max below ~3.7e-37 —
/// every denormal-only row) gives zeros with scale 1, and a row with a NaN
/// or ±inf lane gives zeros with scale NaN, so its dequantized products
/// come out NaN rather than a made-up finite value.
void quantize_row_i8(const float* x, std::size_t n, std::int8_t* q,
                     float* scale);

/// Largest inner dimension the i8 kernels accept: kdim * 127^2 must stay
/// below 2^31 so the i32 accumulators cannot overflow.
inline constexpr std::size_t kMaxQuantizedInnerDim = 133000;

}  // namespace apds
