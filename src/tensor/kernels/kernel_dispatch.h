// Runtime CPU-feature kernel dispatch (MLAS-style).
//
// The hot inference kernels exist in three builds of one shared body
// (kernel_body.inl for f32/i8 and the moment tile template both the f32
// and the f64 moment tile instantiate, kernel_body_f64.inl for the f64
// conv moment, GEMM and activation tiles): a baseline TU compiled with the
// project defaults (SSE2 on x86-64), an AVX2+FMA TU and a Skylake-X
// AVX-512 TU (F+BW+DQ+VL — BW is what gives the i8 kernels 512-bit
// vpmaddwd), each with its own -m flags (see src/tensor/CMakeLists.txt).
// At startup the dispatcher probes CPUID once and binds the best supported
// table; every caller goes through kernel_ops() function pointers, so one
// binary serves the whole ISA range an IoT fleet actually spans.
//
// Resolution precedence mirrors the thread-pool width and precision:
//   set_global_kernel_backend() (the benches' --kernel flag lands here)
//   > the APDS_KERNEL environment variable ("scalar" | "avx2" | "avx512")
//   > the CPUID probe (best supported level).
// Forcing a backend the CPU cannot execute logs a warning and clamps to
// the best supported one — an override must never SIGILL a device.
//
// The f32 fast path, the i8 quantized path, the f64 moment pass (its
// dropout-linear, conv1d and PWL activation tiles, kernel_body_f64.inl)
// and the batched MCDrop pass (the f64 GEMM tile) route through this
// table; the rest of the f64 path (nn, training, the per-sample
// Mlp::forward_stochastic reference) keeps default flags in
// tensor/gemm.cpp. Every dispatched kernel keeps the per-output-element
// accumulation order of the serial loops, so results are bit-identical
// across thread counts *within* a backend (across backends they agree to
// documented tolerances — FMA contraction and vector shuffles change
// rounding, not math). The scalar tier has no FMA, so its f64 moment tile
// is bit-identical to the plain f64 GEMM against W and square(W), and its
// f64 GEMM tile to that GEMM. The f64 activation tile replaces libm
// erfc/exp with a branch-free rational/polynomial pair on every tier,
// scalar included; it stays within ~2e-16 of libm per boundary, and a
// boundary 9 or more sigmas away contributes its limit, which is inside
// that (docs/PERFORMANCE.md).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace apds {

/// ISA tiers the dispatcher can bind. Ordered: a CPU supporting a level
/// supports every lower one (AVX-512F implies AVX2+FMA implies SSE2).
enum class KernelBackend {
  kScalar = 0,  ///< project-default flags (SSE2 baseline on x86-64)
  kAvx2 = 1,    ///< -mavx2 -mfma
  kAvx512 = 2,  ///< Skylake-X set: -mavx512f -mavx512bw -mavx512dq -mavx512vl
};

/// "scalar" / "avx2" / "avx512" (flag spelling, also in bench row names).
const char* kernel_backend_name(KernelBackend b);

/// Parse "scalar"/"avx2"/"avx512" (case-insensitive; "sse2" is accepted as
/// an alias of scalar). Throws InvalidArgument on anything else.
KernelBackend parse_kernel_backend(const std::string& name);

/// The best backend this CPU can execute, probed once via CPUID.
KernelBackend best_supported_backend();

/// Whether this CPU can execute `b` (scalar is always supported).
bool kernel_backend_supported(KernelBackend b);

/// Pin the process-wide backend, overriding APDS_KERNEL. An unsupported
/// value logs a warning and clamps to best_supported_backend().
void set_global_kernel_backend(KernelBackend b);

/// Revert to the APDS_KERNEL / probe resolution (mainly for tests).
void clear_global_kernel_backend();

/// The backend inference kernels run on, resolved per the precedence
/// above. An unparseable APDS_KERNEL value logs a warning and falls back
/// to the probe.
KernelBackend global_kernel_backend();

/// Column-tile width of the fused moment->activation kernels; callers size
/// their stack tiles (mean/var/deterministic-mask) with this.
inline constexpr std::size_t kKernelMomentTile = 128;

/// Row-block height of the moment kernels' work units. A unit's tile reads
/// each W slice once for all its rows (on avx512 the f32/f64 tiles pack a
/// k-block of each register block's W panel and reuse it across the unit's
/// rows; on avx2 and SSE2 they square an 8-row group of W into an L1
/// buffer that every row reads; the i8 tile builds each W pair vector once
/// per block of 4 rows), so the weights cross the L2 interface once per
/// 16 batch rows instead of once per row. The
/// drivers split work on these fixed units, which is what keeps every
/// result bit-identical across pool widths.
inline constexpr std::size_t kKernelMomentRows = 16;

/// Non-owning view of a piece-wise linear surrogate in kernel layout:
/// per-piece upper boundaries (last may be +inf), slopes and intercepts as
/// separate f64 arrays. PiecewiseLinear::view() hands one out over arrays
/// the surrogate owns — the kernel layer deliberately knows nothing about
/// core types. The f32 tile narrows k and c once per piece.
struct PwlView {
  double lo0 = 0.0;            ///< lower bound of piece 0 (may be -inf)
  const double* hi = nullptr;  ///< [pieces] upper boundaries
  const double* k = nullptr;   ///< [pieces] slopes
  const double* c = nullptr;   ///< [pieces] intercepts
  std::size_t pieces = 0;
};

/// The function-pointer table one ISA tier exports. All kernels take raw
/// row-major buffers; shape checks and thread partitioning stay in the
/// generic drivers (core/moment_*.cpp, conv/moment_conv.cpp,
/// uncertainty/mcdrop.cpp), which call these on disjoint output ranges.
struct KernelOps {
  const char* name;  ///< kernel_backend_name of the TU that built the table

  /// The fused elementwise prep of moment_linear's two GEMM inputs:
  ///   sm[i] = mu[i] p,  vi[i] = (mu[i]^2 + var[i]) p - mu[i]^2 p^2.
  void (*moment_prep_f32)(const float* mu, const float* var, float* sm,
                          float* vi, std::size_t n, float p, float p2);

  /// In-place PWL activation moments for up to kKernelMomentTile elements.
  /// Lane-major (kernel_body.inl's act_tile, shared with act_tile_f64):
  /// each block of native vectors of lanes keeps its mean, sigma, 1/sigma,
  /// the lower boundary's phi/Phi/z phi and its E[Y], E[Y^2] sums in
  /// registers while it walks every boundary and piece, and every lane
  /// runs the same expression sequence in every block width, so a lane's
  /// bits do not depend on n or on its neighbours. Each boundary's z is
  /// clamped to |z| <= 6.5; a lane at the clamp takes the phi/Phi values
  /// there (computed once per call), and a vector whose lanes are all at
  /// the clamp skips the exp and erf, so the rule changes no bit. Lanes
  /// whose input variance is below det_threshold are left UNTOUCHED
  /// (still holding the input moments), marked det[i] = 1, and the call
  /// returns true — the caller fixes them up through the f64 scalar path
  /// (the closed form loses to linearization there at f32 epsilon). det
  /// must hold n bytes; it is only written when the return value is true.
  bool (*act_tile_f32)(const PwlView& f, float* m, float* v, std::size_t n,
                       float det_threshold, unsigned char* det);

  /// One row-block x column-tile of the fused moment_linear: for r in
  /// [r0, r1), j in [j0, j1),
  ///   tmean[(r-r0)(j1-j0) + j-j0] = dot(sm[r,:], W[:,j]) + bias[j]
  ///   tvar [(r-r0)(j1-j0) + j-j0] = max(0, dot(vi[r,:], W[:,j]∘W[:,j]))
  /// sm/vi are the full prepped input matrices (batch x kdim row-major);
  /// W is kdim x n row-major; r1 - r0 <= kKernelMomentRows and
  /// j1 - j0 <= kKernelMomentTile. W∘W is not an input: the register-
  /// blocked tile (kernel_body.inl's moment_tile) loads each W vector
  /// once, squares it in a register and feeds it to the mean and variance
  /// accumulators of every row of its block, which stay in registers, so
  /// every variance term uses fl32(fl32(w)^2). A one-row call runs a wide
  /// GEMV block; any other row count runs a multi-row block over a packed
  /// W panel on avx512, and on avx2 and SSE2 (16 vector registers) an L1
  /// jam whose output block is the accumulator. Per element one
  /// accumulator starts at +0 and adds its terms in ascending k (fused on
  /// avx2/avx512), then the bias, then the clamp, in every block shape and
  /// in the jam, so a row's bits do not depend on the batch around it and
  /// results are partition-invariant. kdim = 0 gives the bias and a zero
  /// variance. No heap allocation. The caller runs the activation tile on (tmean, tvar) while
  /// they are still hot and only then spills to the output matrix — the
  /// pre-activation moment matrices never exist in memory.
  void (*moment_tile_f32)(const float* sm, const float* vi, const float* w,
                          const float* bias, std::size_t kdim, std::size_t n,
                          std::size_t r0, std::size_t r1, std::size_t j0,
                          std::size_t j1, float* tmean, float* tvar);

  /// i8 twin of moment_tile_f32: qsm/qvi are the dynamically quantized
  /// input matrices (symmetric, per-row scales sm_scale/vi_scale indexed
  /// by absolute row); qw/qwsq are kdim x n i8 weights with per-output-
  /// column scales w_scale/wsq_scale. Unlike the f32 tile, W∘W is its own
  /// pre-quantized operand: the i16 pair products need |q| <= 127 on both
  /// sides, which a square of a quantized W would break. Accumulation is
  /// exact i32 (caller bounds kdim so 127^2 * kdim fits): a multi-row call
  /// runs pmaddwd register blocks of 4 rows over (k, k + 1) term pairs, a
  /// one-row call an L1 jam, and exact sums make both give the same bits.
  /// Dequantization lands directly in the f32 tile, bias added and
  /// variance clamped >= 0 as in the f32 kernel.
  void (*moment_tile_i8)(const std::int8_t* qsm, const float* sm_scale,
                         const std::int8_t* qvi, const float* vi_scale,
                         const std::int8_t* qw, const float* w_scale,
                         const std::int8_t* qwsq, const float* wsq_scale,
                         const float* bias, std::size_t kdim, std::size_t n,
                         std::size_t r0, std::size_t r1, std::size_t j0,
                         std::size_t j1, float* tmean, float* tvar);

  /// f64 instance of act_tile_f32's template: the same lane-major walk,
  /// position invariance and near-deterministic contract (lanes with
  /// v < det_threshold are left holding their input moments and flagged in
  /// det[] for the caller's scalar activation_moments fixup; det is written
  /// only when the call returns true). Each boundary's phi/Phi comes from
  /// one branch-free polynomial exp(-z^2/2) and a Cody rational erfc; no
  /// libm call. Saturation rule, per lane: a boundary at |z| >= Z_sat = 9
  /// contributes its limit phi = 0, Phi = 0 or 1 (z phi = 0), and a vector
  /// whose lanes all qualify (or are near-deterministic) skips the exp and
  /// the rationals. phi(9) ~ 1.0e-18 and 1 - Phi(9) ~ 1.1e-19 bound the
  /// rule's error per boundary, inside the ~2e-16 of the pdf/cdf pair; the
  /// clamp also keeps every lane out of subnormals. NaN inputs propagate.
  bool (*act_tile_f64)(const PwlView& f, double* m, double* v, std::size_t n,
                       double det_threshold, unsigned char* det);

  /// f64 instance of moment_tile_f32's tile (same block shapes in native
  /// vectors, W squared in registers, the same jam for multi-row calls on
  /// avx2 and SSE2), but it lands straight in the caller's output rows
  /// instead of a stack tile:
  /// for r in [r0, r1), j in [j0, j1),
  ///   out_mean[r n + j] = dot(sm[r,:], W[:,j]) + bias[j]
  ///   out_var [r n + j] = max(0, dot(vi[r,:], W[:,j]∘W[:,j]))
  /// out_mean/out_var are the full batch x n matrices. No zero-input skip:
  /// a non-finite weight facing a dropped (zero) input yields NaN, which is
  /// why the model loaders reject non-finite parameters. Bit-identical to
  /// the plain f64 GEMM on the scalar tier; FMA-contracted on avx2/avx512.
  void (*moment_tile_f64)(const double* sm, const double* vi, const double* w,
                          const double* bias, std::size_t kdim, std::size_t n,
                          std::size_t r0, std::size_t r1, std::size_t j0,
                          std::size_t j1, double* out_mean, double* out_var);

  /// Windows [t0, t1) of one batch row of the f64 conv1d dropout moments,
  /// one keep-mask per input channel shared across a window's taps:
  ///   out_mean[t oc + j] = p sum_c P_c + bias[j]
  ///   out_var [t oc + j] = max(0, p sum_{k,c} var W^2 + p(1-p) sum_c P_c^2)
  /// with P_c = sum_k mu W over channel c's taps. mu/var hold the row's
  /// channel-interleaved input; window t is the contiguous kernel * channels
  /// slice at t * stride * channels (no im2col copy). W is
  /// [kernel * channels, oc] row-major, squared in registers; out_mean/
  /// out_var hold the row's [out_len * oc] output. Per element the order
  /// is channels ascending, taps ascending, so any window split gives the
  /// same bits. No heap allocation; stack use does not grow with channels.
  void (*moment_conv_tile_f64)(const double* mu, const double* var,
                               const double* w, const double* bias,
                               std::size_t kernel, std::size_t channels,
                               std::size_t stride, std::size_t oc,
                               double keep_prob, std::size_t t0,
                               std::size_t t1, double* out_mean,
                               double* out_var);

  /// C[i0:i1, j0:j1] = A[i0:i1, :] B[:, j0:j1]; A is m x k, B k x n, C
  /// m x n, all row-major (the batched MCDrop pass: k stochastic passes
  /// stacked as rows). Register-blocked: a block of rows x native vectors
  /// of columns keeps its accumulators in registers across the whole k
  /// loop. Per element one accumulator starts at +0 and adds its terms in
  /// ascending k, with no zero-input skip, so the scalar tier is
  /// bit-identical to gemm_buffers(double) and any split of the output is
  /// too; avx2/avx512 differ from it only by FMA contraction. No heap
  /// allocation.
  void (*gemm_tile_f64)(const double* a, const double* b, double* c,
                        std::size_t k, std::size_t n, std::size_t i0,
                        std::size_t i1, std::size_t j0, std::size_t j1);
};

/// The table bound to the globally resolved backend.
const KernelOps& kernel_ops();

/// The table of an explicit backend (agreement tests compare these).
/// Requesting an unsupported tier returns the scalar table.
const KernelOps& kernel_ops(KernelBackend b);

}  // namespace apds
