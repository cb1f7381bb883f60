// Fused dropout-linear -> PWL-activation moment propagation.
//
// The unfused path (moment_linear + moment_activation_inplace) writes the
// pre-activation mean/variance matrices to memory and immediately reads
// them back for the activation pass — at IoT layer sizes the intermediate
// round-trip costs as much bandwidth as the GEMMs themselves. The fused
// path computes each output tile's pre-activation moments into stack
// buffers (one k-pass accumulating the W and W∘W products together),
// applies the piece-major activation-moment tile while the values are
// still in registers/L1, and only then spills the POST-activation moments
// to the output matrix. The intermediate matrices never exist. The f32
// path keeps no W∘W pack: the tile squares each streamed W slice in L1,
// so every weight crosses the memory hierarchy once per row block.
//
// Both fused drivers route through the runtime kernel dispatcher
// (tensor/kernels/), so the tile kernels run at the widest ISA tier the
// CPU supports. The i8 variant additionally consumes per-output-channel
// symmetric quantized weights (tensor/quantize.h) with dynamic per-row
// activation quantization and exact i32 accumulation — the paper's
// low-cost-IoT pitch taken one tier further. The final moment head of a
// network should stay f32/f64 (an i8 InferenceSession does this);
// quantizing the layer that *reports* the predictive variance costs
// calibration, whereas hidden layers tolerate it (drift numbers in docs/PERFORMANCE.md).
#pragma once

#include <cstdint>

#include "core/gaussian_vec.h"
#include "core/piecewise_linear.h"
#include "nn/mlp.h"
#include "tensor/kernels/kernel_dispatch.h"
#include "tensor/quantize.h"

namespace apds {

/// One dense layer packed for the i8 path: symmetric per-output-channel
/// i8 weights for W and W∘W (squared in f64, then quantized — one
/// quantization instead of a quantized square), plus f32 bias.
struct QuantizedDenseLayer {
  QuantizedMatrix weight;
  QuantizedMatrix weight_sq;
  MatrixF bias;
};

/// Pack one trained layer's weights for the i8 fused path.
QuantizedDenseLayer quantize_dense_layer(const DenseLayer& layer);

/// Caller-provided scratch for the raw fused entry points: sm/vi are
/// batch x kdim f32 blocks (prepped GEMM inputs); the q_*/*_scale members
/// are only dereferenced by the i8 overload (batch x kdim i8 rows plus
/// per-row dynamic scales). Sessions pass arena-planned slices.
struct FusedScratchView {
  float* sm = nullptr;
  float* vi = nullptr;
  std::int8_t* q_sm = nullptr;
  std::int8_t* q_vi = nullptr;
  float* sm_scale = nullptr;
  float* vi_scale = nullptr;
};

/// Fused f32 moment_linear -> activation on raw buffers: semantically
/// moment_linear(...) followed by moment_activation_inplace(f, ...), minus
/// the intermediate matrices (rounding differs within f32 tolerance; the
/// variance term squares the f32 weight in-tile, fl32(fl32(w)^2)). The
/// activation tile reads `f` through f.view(); near-deterministic lanes
/// are finished by the f64 scalar activation_moments. No allocation, no
/// shape checks.
void moment_linear_act_into(const float* in_mean, const float* in_var,
                            std::size_t batch, std::size_t kdim,
                            const float* weight, const float* bias,
                            std::size_t n, double keep_prob,
                            const PiecewiseLinear& f,
                            const FusedScratchView& scratch, float* out_mean,
                            float* out_var);

/// Raw-buffer fused i8 layer: dynamic per-row input quantization (scratch
/// must include the q_*/*_scale blocks), exact i32 accumulation against
/// the packed i8 weights, dequantize + bias + PWL activation moments in one
/// tile pass. Requires kdim <= kMaxQuantizedInnerDim.
void moment_linear_act_into(const float* in_mean, const float* in_var,
                            std::size_t batch, std::size_t kdim,
                            const QuantizedDenseLayer& layer,
                            double keep_prob, const PiecewiseLinear& f,
                            const FusedScratchView& scratch, float* out_mean,
                            float* out_var);

}  // namespace apds
