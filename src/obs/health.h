// HealthMonitor: process-wide aggregate of the streaming monitors in
// obs/monitor.h, with point-in-time snapshots exportable as JSON
// (`health.json` under `--obs-dir`) — the serving-side counterpart of the offline
// tables/figures: uncertainty quality (coverage, NLL) and input drift,
// observable while the system runs. Latency lives in the
// `request.latency_ms` histogram of the metrics registry.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "obs/monitor.h"

namespace apds::obs {

/// Point-in-time aggregate of every monitor. Plain data — safe to copy out
/// and serialize after the monitors move on.
struct HealthSnapshot {
  // Calibration (empty coverage = no labelled observations yet).
  std::size_t calibration_count = 0;
  std::vector<CalibrationMonitor::Coverage> coverage;
  double nll = 0.0;

  // Input drift (empty features = no reference frozen yet).
  std::size_t drift_rows = 0;
  std::vector<DriftMonitor::FeatureDrift> drift;
  double max_abs_z = 0.0;

  std::vector<Alert> alerts;

  /// Single JSON object with one section per monitor plus the alert list.
  void write_json(std::ostream& os) const;
  std::string to_json() const;
  /// Throws IoError on failure.
  void write_json_file(const std::string& path) const;
};

/// Process-wide owner of one monitor of each kind sharing one AlertSink,
/// mirroring MetricsRegistry::instance(). Call sites feed the individual
/// monitors; ObsSession snapshots and exports on exit when `--obs-dir`
/// was passed.
class HealthMonitor {
 public:
  HealthMonitor();

  /// The instance the instrumented callers (eval/experiment.cpp, the
  /// examples) report to.
  static HealthMonitor& instance();

  CalibrationMonitor& calibration() { return calibration_; }
  DriftMonitor& drift() { return drift_; }
  AlertSink& alerts() { return alerts_; }

  HealthSnapshot snapshot() const;

  /// Clear every monitor's windowed state and all alerts (the drift
  /// reference is kept).
  void reset();

 private:
  AlertSink alerts_;
  CalibrationMonitor calibration_;
  DriftMonitor drift_;
};

}  // namespace apds::obs
