// Streaming health monitors for the inference stack: sliding-window
// calibration coverage/NLL and per-feature input-drift detection against a
// frozen training-set reference. Each monitor ingests observations one at
// a time (cheap enough for the serving hot path), keeps a bounded window,
// and raises structured alerts through an AlertSink when a threshold is
// breached. The HealthMonitor aggregate and its JSON exporter live in
// obs/health.h.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace apds::obs {

// ---------------------------------------------------------------------------
// Alerts

/// One threshold breach, machine-readable. `value` is the observed
/// statistic, `threshold` the configured limit it crossed.
struct Alert {
  std::string monitor;   ///< "calibration" | "drift"
  std::string message;
  double value = 0.0;
  double threshold = 0.0;
};

/// Thread-safe alert collector. Every raised alert is also emitted as a log
/// line (warn) and, when tracing is enabled, as a zero-duration trace
/// event in the "alert" category, so breaches land in the same timeline as
/// the spans that caused them.
class AlertSink {
 public:
  void raise(Alert alert);

  std::size_t count() const;
  /// Copy of all alerts raised so far (consistent snapshot under the lock).
  std::vector<Alert> alerts() const;
  void clear();

 private:
  mutable Mutex mu_;
  std::vector<Alert> alerts_ APDS_GUARDED_BY(mu_);
};

// ---------------------------------------------------------------------------
// Sliding window

/// Fixed-capacity ring of doubles with lifetime count. Not thread-safe on
/// its own — the owning monitor serializes access.
class SlidingWindow {
 public:
  explicit SlidingWindow(std::size_t capacity);

  void push(double v);
  /// Observations currently held (<= capacity).
  std::size_t size() const { return size_; }
  /// Lifetime observation count (monotonic).
  std::size_t total() const { return total_; }
  double mean() const;
  void clear();

  /// Values currently held, unordered.
  std::span<const double> values() const { return {buf_.data(), size_}; }

 private:
  std::vector<double> buf_;
  std::size_t next_ = 0;
  std::size_t size_ = 0;
  std::size_t total_ = 0;
};

// ---------------------------------------------------------------------------
// Calibration

struct CalibrationMonitorConfig {
  /// Central-interval coverage levels to track (each in (0, 1)).
  std::vector<double> nominal_levels = {0.5, 0.9, 0.95};
  /// Sliding-window length (labelled predictions).
  std::size_t window = 512;
  /// Alert when |empirical - nominal| exceeds this at any level.
  double coverage_tolerance = 0.15;
  /// No alerts before this many labelled observations.
  std::size_t min_count = 64;
};

/// Windowed empirical coverage + Gaussian NLL over labelled predictions,
/// fed whenever ground truth becomes available at serving time. The
/// interval math is shared with metrics/calibration.h via
/// stats/gaussian.h's central_interval_z.
class CalibrationMonitor {
 public:
  explicit CalibrationMonitor(CalibrationMonitorConfig config = {},
                              AlertSink* sink = nullptr);

  /// One labelled scalar prediction. Requires var > 0.
  void observe(double mean, double var, double target);
  /// Element-wise batch form; the three spans must have equal length.
  void observe_batch(std::span<const double> mean, std::span<const double> var,
                     std::span<const double> target);

  struct Coverage {
    double nominal = 0.0;
    double empirical = 0.0;  ///< over the current window
  };

  std::size_t count() const;  ///< lifetime labelled observations
  /// Windowed empirical coverage at each configured nominal level.
  std::vector<Coverage> coverage() const;
  /// Windowed mean Gaussian NLL (0.0 before any observation).
  double nll() const;

  const CalibrationMonitorConfig& config() const { return config_; }
  void reset();

 private:
  void check_alerts_locked() APDS_REQUIRES(mu_);

  CalibrationMonitorConfig config_;
  AlertSink* sink_;
  std::vector<double> level_z_;  ///< central_interval_z per nominal level
  mutable Mutex mu_;
  /// |target - mean| / stddev per observation.
  SlidingWindow abs_z_ APDS_GUARDED_BY(mu_);
  SlidingWindow nll_ APDS_GUARDED_BY(mu_);
  /// Per level, for edge-triggered alerts.
  std::vector<bool> breached_ APDS_GUARDED_BY(mu_);
};

// ---------------------------------------------------------------------------
// Input drift

struct DriftMonitorConfig {
  /// Sliding-window length per feature (rows).
  std::size_t window = 256;
  /// Alert when |window mean - ref mean| / (ref sd / sqrt(n)) exceeds this.
  double z_threshold = 6.0;
  /// Alert when the windowed KS test against the reference Gaussian has a
  /// p-value below this (checked once per full window; <= 0 disables).
  double ks_p_threshold = 1e-4;
  /// No alerts before this many rows.
  std::size_t min_count = 64;
};

/// Per-feature drift of serving inputs against frozen training-set
/// statistics: a z-score on the windowed mean plus a periodic
/// Kolmogorov–Smirnov test (stats/ks_test.h) of the window against the
/// reference Gaussian.
class DriftMonitor {
 public:
  explicit DriftMonitor(DriftMonitorConfig config = {},
                        AlertSink* sink = nullptr);

  /// Freeze the reference distribution (one mean/variance per feature,
  /// e.g. from the training set). Clears any windowed state. Requires
  /// equal-length spans and strictly positive variances.
  void set_reference(std::span<const double> mean,
                     std::span<const double> var);
  bool has_reference() const;
  std::size_t dim() const;

  /// One input row; must have exactly dim() features.
  void observe(std::span<const double> features);

  struct FeatureDrift {
    double ref_mean = 0.0;
    double ref_var = 0.0;
    double window_mean = 0.0;
    double z = 0.0;       ///< standardized window-mean shift
    double ks_stat = 0.0; ///< KS statistic of window vs reference Gaussian
    double ks_p = 1.0;    ///< asymptotic KS p-value (1.0 before data)
  };

  std::size_t count() const;  ///< lifetime rows observed
  /// Per-feature drift diagnostics over the current window (runs the KS
  /// test per feature — intended for snapshots, not the per-row hot path).
  std::vector<FeatureDrift> drift() const;
  /// Largest |z| across features (0.0 before data).
  double max_abs_z() const;

  const DriftMonitorConfig& config() const { return config_; }
  /// Clears windowed state, keeps the reference.
  void reset();

 private:
  double feature_z_locked(std::size_t f) const APDS_REQUIRES(mu_);
  void check_alerts_locked() APDS_REQUIRES(mu_);

  DriftMonitorConfig config_;
  AlertSink* sink_;
  mutable Mutex mu_;
  std::vector<double> ref_mean_ APDS_GUARDED_BY(mu_);
  std::vector<double> ref_var_ APDS_GUARDED_BY(mu_);
  /// One window per feature.
  std::vector<SlidingWindow> windows_ APDS_GUARDED_BY(mu_);
  /// Per feature, edge-triggered.
  std::vector<bool> breached_ APDS_GUARDED_BY(mu_);
  std::size_t rows_ APDS_GUARDED_BY(mu_) = 0;
};

}  // namespace apds::obs
