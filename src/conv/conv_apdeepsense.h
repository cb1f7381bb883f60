// ApDeepSense extended to convolutional networks (paper Section VI future
// work): one analytic pass through the conv stack (moment_conv1d) and the
// dense head (moment_linear + moment_activation) yields the predictive
// Gaussian without sampling, exactly as for dense networks.
//
// The conv layers run the dispatched conv moment tile and the f64
// activation tile in place: the inner layers ping-pong between two slots
// of the thread's scratch arena (core/arena.h), sized by the layer widths,
// and the last layer writes a per-(object, thread) feature batch, found
// through the arena owner-keyed cache, which feeds the head's
// InferenceSession. So the in-place propagate() allocates nothing once
// warm, and the by-value forms allocate only what they return (and the
// point input).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "conv/conv_net.h"
#include "conv/moment_conv.h"
#include "core/apdeepsense.h"

namespace apds {

class ConvApDeepSense {
 public:
  explicit ConvApDeepSense(const ConvNet& net, ApDeepSenseConfig config = {});

  /// Deterministic input batch -> Gaussian over network outputs.
  MeanVar propagate(const Matrix& x) const;

  /// Gaussian input batch (e.g. modelled sensor noise) -> Gaussian output.
  MeanVar propagate(const MeanVar& input) const;

  /// In-place form the others wrap: `out` is resized to [batch, outputs]
  /// and keeps its capacity, so a warm call into a reused `out` performs
  /// no heap allocation. Checks the input width and the moment contract
  /// (finite means, finite nonnegative variances; MomentContractViolation)
  /// once, before any work.
  void propagate(const MeanVar& input, MeanVar& out) const;

 private:
  /// One thread's conv-stack output, the head session's input.
  struct ThreadArena {
    MeanVar features;
  };
  /// This thread's arena (the first call on a thread allocates).
  ThreadArena& thread_arena() const;

  const ConvNet* net_;  ///< non-owning; must outlive this object
  ApDeepSenseConfig config_;
  std::vector<PiecewiseLinear> conv_surrogates_;
  ApDeepSense head_;  ///< analytic propagator over the dense head
  std::uint64_t id_;  ///< owner key of the per-thread feature batches
  mutable Mutex arenas_mu_;
  mutable std::vector<std::unique_ptr<ThreadArena>> arenas_
      APDS_GUARDED_BY(arenas_mu_);
};

}  // namespace apds
