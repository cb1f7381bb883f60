// ApDeepSense: sampling-free uncertainty propagation through a pre-trained
// dropout MLP (the paper's primary contribution, Section III).
//
// A single analytic pass alternates the closed-form dropout-linear moments
// (moment_linear) with the closed-form PWL activation moments
// (moment_activation), producing the full diagonal-Gaussian predictive
// distribution at the output. No retraining, no sampling.
#pragma once

#include <map>
#include <mutex>
#include <vector>

#include "common/precision.h"
#include "core/gaussian_vec.h"
#include "core/moment_activation.h"
#include "core/moment_fused.h"
#include "core/moment_linear.h"
#include "core/piecewise_linear.h"
#include "nn/mlp.h"

namespace apds {

struct ApDeepSenseConfig {
  /// Piece count for the tanh/sigmoid surrogates (paper uses 7).
  std::size_t saturating_pieces = 7;
};

/// Analytic uncertainty propagator bound to one network.
///
/// The surrogate PWL functions are resolved once per distinct activation at
/// construction, so propagate() is allocation-light and branch-free over
/// layer structure.
class ApDeepSense {
 public:
  explicit ApDeepSense(const Mlp& mlp, ApDeepSenseConfig config = {});

  /// Bind with explicit per-layer surrogates (one per weight layer), e.g.
  /// from calibrate_surrogates() in adaptive_surrogate.h.
  ApDeepSense(const Mlp& mlp, std::vector<PiecewiseLinear> surrogates);

  /// Propagate a deterministic input batch; returns the Gaussian output.
  /// Runs in the ambient global_precision() (see overload below).
  MeanVar propagate(const Matrix& x) const;

  /// Propagate an uncertain (Gaussian) input batch — e.g. sensor noise
  /// models feeding uncertainty in at the input. Dispatches on
  /// global_precision(): kF64 is the original bit-exact path; kF32 runs
  /// the whole layer stack through the fused single-precision kernels
  /// (packed f32 weights, runtime ISA dispatch) and widens the result;
  /// kI8 runs hidden layers on symmetric-quantized i8 weights with exact
  /// i32 accumulation and keeps the final moment head in f32.
  MeanVar propagate(const MeanVar& input) const;

  /// Propagate at an explicit precision regardless of the global setting.
  /// The f32/i8 paths convert the input once, keep every intermediate
  /// layer batch in f32, and convert the final moments back to f64; API
  /// types stay double either way.
  MeanVar propagate(const MeanVar& input, Precision precision) const;

  /// Single-input convenience.
  GaussianVec propagate_one(std::span<const double> x) const;

  /// Propagate and also record the per-layer post-activation Gaussians
  /// (used by the Fig. 1 toy validation and by tests). layer_outputs[l]
  /// is the distribution after layer l's activation. Always runs the f64
  /// reference path — this is the validation surface the Fig. 1 harness
  /// and the precision-agreement tests compare against, so it must not
  /// follow the global precision switch.
  MeanVar propagate_recording(const MeanVar& input,
                              std::vector<MeanVar>& layer_outputs) const;

  const Mlp& network() const { return *mlp_; }
  const ApDeepSenseConfig& config() const { return config_; }

  /// The PWL surrogate used for layer l's activation.
  const PiecewiseLinear& surrogate(std::size_t l) const;

 private:
  /// f32 fast-path pack: single-precision copies of W and b per layer, so
  /// propagate() at kF32 never converts weights per call. There is no W∘W
  /// pack: the fused tile squares the narrowed W in-kernel, so each
  /// variance term uses fl32(fl32(w)^2).
  struct F32Pack {
    std::vector<MatrixF> weight;
    std::vector<MatrixF> bias;
  };

  /// i8 pack: hidden layers carry symmetric per-output-channel quantized
  /// W / W∘W + f32 bias; the final layer — the moment head that reports
  /// the predictive distribution — stays f32 (quantizing it costs
  /// calibration for ~no latency, it is one layer out of L) and, like
  /// F32Pack, keeps no W∘W.
  struct I8Pack {
    std::vector<QuantizedDenseLayer> hidden;  ///< layers 0 .. L-2
    MatrixF final_weight;
    MatrixF final_bias;
  };

  MeanVar propagate_f64(const MeanVar& input) const;
  MeanVar propagate_f32(const MeanVar& input) const;
  MeanVar propagate_i8(const MeanVar& input) const;

  // Weight packs are built lazily on first use per precision (thread-safe
  // via call_once): a process that only ever runs one precision pays for
  // exactly one pack, instead of tripling steady-state weight memory on
  // devices that are the paper's whole point.
  const std::vector<Matrix>& f64_pack() const;
  const F32Pack& f32_pack() const;
  const I8Pack& i8_pack() const;

  const Mlp* mlp_;  ///< non-owning; must outlive this object
  ApDeepSenseConfig config_;
  std::vector<PiecewiseLinear> surrogates_;  ///< one per layer

  mutable std::once_flag f64_once_;
  mutable std::once_flag f32_once_;
  mutable std::once_flag i8_once_;
  mutable std::vector<Matrix> weight_sq_;  ///< cached W∘W per layer (f64)
  mutable F32Pack f32_pack_storage_;
  mutable I8Pack i8_pack_storage_;
};

}  // namespace apds
