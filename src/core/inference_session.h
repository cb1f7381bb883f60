// InferenceSession: a loaded, immutable, shareable instance of one model at
// one precision, with fully planned memory (onnxruntime core/session-style).
//
// Construction walks the layer sequence once: it packs the weights for the
// configured precision (f64 W, f32 narrowed W — the dispatched f64 and f32
// moment tiles square W as they read it — or i8 symmetric per-channel
// quantized hidden layers + f32 moment head), resolves the PWL activation
// surrogates (each carries its own kernel view), and derives the arena
// layout —
// every intermediate buffer's shape (pre-activation moments, fused-tile
// spill, activation outputs, quantized activation rows) becomes an offset
// into one contiguous per-(session, thread) arena, with ping-pong parity
// reuse so two layer buffers back the whole depth. Steady-state
// propagate() therefore performs ZERO heap allocations: it hands out arena
// pointers, runs the raw moment_*_into kernels, and writes into a
// caller-reused output batch. tests/test_inference_session.cpp asserts the
// zero-alloc property across precision x backend x thread count, and bit-
// identity of the f64 session at the scalar kernel tier against a
// layer-by-layer reference built from public pieces.
// ApDeepSense::propagate runs a session at every precision, so there is
// one engine per precision.
//
// A session is thread-safe for concurrent propagate() calls (each thread
// lazily gets its own arena, cached through core/arena.h's per-thread map)
// and is meant to be shared via shared_ptr: ApDeepSense and ApdEstimator
// hold one per precision. Its arenas live as long as the session.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/precision.h"
#include "common/thread_annotations.h"
#include "core/arena.h"
#include "core/gaussian_vec.h"
#include "core/moment_fused.h"
#include "core/piecewise_linear.h"
#include "nn/mlp.h"

namespace apds {

struct SessionConfig {
  /// Precision the session is planned and packed for.
  Precision precision = Precision::kF64;
  /// Arena batch capacity planned at load. 0 plans lazily from the first
  /// batch seen; a larger batch later replans (one allocation, then steady
  /// state again at the new size).
  std::size_t max_batch = 0;
  /// Piece count for the tanh/sigmoid surrogates (paper uses 7).
  std::size_t saturating_pieces = 7;
};

class InferenceSession {
 public:
  /// Pack `mlp` for config.precision. The Mlp is only read during
  /// construction — the session keeps its own copies of everything.
  explicit InferenceSession(const Mlp& mlp, SessionConfig config = {});

  /// Bind with explicit per-layer surrogates (one per weight layer), e.g.
  /// from calibrate_surrogates() in adaptive_surrogate.h.
  InferenceSession(const Mlp& mlp, std::vector<PiecewiseLinear> surrogates,
                   SessionConfig config = {});

  InferenceSession(const InferenceSession&) = delete;
  InferenceSession& operator=(const InferenceSession&) = delete;

  /// Propagate into a caller-owned output batch. `out` is resized to
  /// [batch, output_dim]; when the caller reuses the same `out` across
  /// calls (capacity retained), a warmed-up call allocates nothing.
  /// A non-finite mean or a negative, NaN or infinite input variance
  /// throws MomentContractViolation at every precision.
  void propagate(const MeanVar& input, MeanVar& out) const;

  /// By-value convenience (allocates the returned batch).
  MeanVar propagate(const MeanVar& input) const;

  /// Deterministic-input convenience (allocates the point distribution).
  MeanVar propagate(const Matrix& x) const;

  Precision precision() const { return config_.precision; }
  const SessionConfig& config() const { return config_; }
  std::size_t num_layers() const { return dims_.size() - 1; }
  std::size_t input_dim() const { return dims_.front(); }
  std::size_t output_dim() const { return dims_.back(); }

  /// Process-unique session id (flight records and trace args carry it).
  std::uint64_t id() const { return id_; }

  /// Total propagate() calls completed, across all threads.
  std::uint64_t propagate_count() const {
    return propagate_count_.load(std::memory_order_relaxed);
  }

  /// Bytes held by the packed weights (all precisions' buffers included).
  std::size_t weight_bytes() const { return weight_bytes_; }
  /// Arena bytes one thread's plan needs for `batch` (the sizing formula
  /// documented in docs/PERFORMANCE.md).
  std::size_t planned_bytes(std::size_t batch) const;
  /// Live arena bytes currently backing this session across all threads.
  std::size_t arena_bytes() const;
  /// weight_bytes() + arena_bytes(): the session's whole footprint.
  std::size_t memory_bytes() const { return weight_bytes() + arena_bytes(); }

 private:
  /// Offsets (bytes into the arena) of every planned slice. Intermediate
  /// layer batches ping-pong between two parity slots; sm/vi are the
  /// prepped moment-tile inputs reused by every layer; the q_*/scale slices
  /// exist only at i8.
  struct ArenaPlan {
    std::size_t batch = 0;
    std::size_t bytes = 0;
    std::size_t slot_mean[2] = {0, 0};
    std::size_t slot_var[2] = {0, 0};
    std::size_t sm = 0;
    std::size_t vi = 0;
    std::size_t q_sm = 0;
    std::size_t q_vi = 0;
    std::size_t sm_scale = 0;
    std::size_t vi_scale = 0;
  };

  struct ThreadArena {
    Arena arena;
    ArenaPlan plan;
  };

  void build(const Mlp& mlp);
  ArenaPlan plan_for(std::size_t batch) const;
  /// This thread's arena, planned for at least `batch` (slow path locks
  /// and (re)allocates; steady state is one thread-local map hit).
  ThreadArena& thread_arena(std::size_t batch) const;

  void propagate_f64(const MeanVar& input, MeanVar& out,
                     ThreadArena& ta) const;
  void propagate_f32(const MeanVar& input, MeanVar& out,
                     ThreadArena& ta) const;
  void propagate_i8(const MeanVar& input, MeanVar& out,
                    ThreadArena& ta) const;

  SessionConfig config_;
  std::uint64_t id_;
  std::vector<std::size_t> dims_;  ///< d0 (input) .. dL (output)
  std::vector<double> keep_probs_;
  std::vector<std::string> act_names_;  ///< activation_name per layer
  std::vector<PiecewiseLinear> surrogates_;

  // Exactly one precision's pack is populated (sessions are per-precision;
  // an estimator that serves several precisions holds several sessions).
  std::vector<Matrix> w64_, b64_;
  std::vector<MatrixF> w32_, b32_;
  std::vector<QuantizedDenseLayer> qlayers_;  ///< i8 hidden layers
  MatrixF final_w32_, final_b32_;  ///< i8 f32 moment head

  std::size_t weight_bytes_ = 0;
  mutable std::atomic<std::uint64_t> propagate_count_{0};
  mutable Mutex arenas_mu_;
  mutable std::vector<std::unique_ptr<ThreadArena>> arenas_
      APDS_GUARDED_BY(arenas_mu_);
};

}  // namespace apds
