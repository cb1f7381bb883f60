#include "tensor/quantize.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace apds {

namespace {

/// Round-half-away-from-zero without touching the FP environment; the
/// branchless form keeps the row-quantization loop vectorizable and the
/// result deterministic everywhere.
inline std::int8_t quantize_value(float x, float inv_scale) {
  float q = x * inv_scale;
  q += q >= 0.0f ? 0.5f : -0.5f;
  std::int32_t qi = static_cast<std::int32_t>(q);
  qi = qi > 127 ? 127 : qi;
  qi = qi < -127 ? -127 : qi;
  return static_cast<std::int8_t>(qi);
}

}  // namespace

QuantizedMatrix quantize_per_col(const Matrix& m) {
  QuantizedMatrix q;
  q.rows = m.rows();
  q.cols = m.cols();
  q.data.assign(q.rows * q.cols, 0);
  q.scale.assign(q.cols, 1.0f);

  // Only columns with a finite inverse scale reach quantize_value, whose
  // int cast is undefined for ±inf and NaN. The rest keep all-zero data:
  // scale 1 when 127/max overflows f32 (all zero, or max below ~3.7e-37),
  // scale NaN when the column holds a value with no finite f32 (NaN, ±inf,
  // or a magnitude above FLT_MAX).
  const double f32_max =
      static_cast<double>(std::numeric_limits<float>::max());
  const double* md = m.data();
  for (std::size_t j = 0; j < q.cols; ++j) {
    double max_abs = 0.0;
    bool finite = true;
    for (std::size_t i = 0; i < q.rows; ++i) {
      const double a = std::fabs(md[i * q.cols + j]);
      finite &= a <= f32_max;
      max_abs = std::max(max_abs, a);
    }
    if (!finite) {
      q.scale[j] = std::numeric_limits<float>::quiet_NaN();
      continue;
    }
    const double inv = 127.0 / max_abs;  // +inf for an all-zero column
    if (!(inv <= f32_max)) continue;
    q.scale[j] = static_cast<float>(max_abs / 127.0);
    const float inv_scale = static_cast<float>(inv);
    for (std::size_t i = 0; i < q.rows; ++i)
      q.data[i * q.cols + j] = quantize_value(
          static_cast<float>(md[i * q.cols + j]), inv_scale);
  }
  return q;
}

void quantize_row_i8(const float* x, std::size_t n, std::int8_t* q,
                     float* scale) {
  float max_abs = 0.0f;
  bool finite = true;
  for (std::size_t i = 0; i < n; ++i) {
    const float a = std::fabs(x[i]);
    finite &= a <= std::numeric_limits<float>::max();
    max_abs = std::max(max_abs, a);
  }
  // A NaN or ±inf lane has no honest i8 code: the row's scale becomes NaN
  // so every dequantized product comes out NaN, as the f32 path would.
  // A row whose 127/max overflows f32 (all zero, or max |x| below ~3.7e-37,
  // which covers every denormal-only row) quantizes to zeros with scale 1.
  // Either way no non-finite value reaches quantize_value's int cast.
  const float inv_scale = 127.0f / max_abs;
  if (!finite || !(inv_scale <= std::numeric_limits<float>::max())) {
    *scale = finite ? 1.0f : std::numeric_limits<float>::quiet_NaN();
    for (std::size_t i = 0; i < n; ++i) q[i] = 0;
    return;
  }
  *scale = max_abs / 127.0f;
  for (std::size_t i = 0; i < n; ++i) q[i] = quantize_value(x[i], inv_scale);
}

}  // namespace apds
