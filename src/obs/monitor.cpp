#include "obs/monitor.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/error.h"
#include "common/logging.h"
#include "obs/flight_recorder.h"
#include "obs/trace.h"
#include "stats/gaussian.h"
#include "stats/ks_test.h"

namespace apds::obs {

// ---------------------------------------------------------------------------
// Alerts

void AlertSink::raise(Alert alert) {
  APDS_WARN("health alert [" << alert.monitor << "] " << alert.message);
  // Let the flight recorder count the alert against in-flight requests and
  // dump the surrounding ring when a dump path is configured.
  FlightRecorder::instance().on_alert();
  if (trace_enabled()) {
    TraceCollector& collector = TraceCollector::instance();
    TraceEvent event;
    event.name = collector.intern("alert." + alert.monitor);
    event.category = "alert";
    std::ostringstream args;
    args << "\"message\":\"" << json_escape(alert.message)
         << "\",\"value\":" << alert.value
         << ",\"threshold\":" << alert.threshold;
    event.args_json = args.str();
    event.ts_us = collector.now_us();
    event.dur_us = 0.0;
    collector.record(std::move(event));
  }
  MutexLock lock(&mu_);
  alerts_.push_back(std::move(alert));
}

std::size_t AlertSink::count() const {
  MutexLock lock(&mu_);
  return alerts_.size();
}

std::vector<Alert> AlertSink::alerts() const {
  MutexLock lock(&mu_);
  return alerts_;
}

void AlertSink::clear() {
  MutexLock lock(&mu_);
  alerts_.clear();
}

// ---------------------------------------------------------------------------
// Sliding window

SlidingWindow::SlidingWindow(std::size_t capacity) : buf_(capacity) {
  APDS_CHECK(capacity > 0);
}

void SlidingWindow::push(double v) {
  buf_[next_] = v;
  next_ = (next_ + 1) % buf_.size();
  if (size_ < buf_.size()) ++size_;
  ++total_;
}

double SlidingWindow::mean() const {
  if (size_ == 0) return 0.0;
  double acc = 0.0;
  for (std::size_t i = 0; i < size_; ++i) acc += buf_[i];
  return acc / static_cast<double>(size_);
}

void SlidingWindow::clear() {
  next_ = 0;
  size_ = 0;
  total_ = 0;
}

// ---------------------------------------------------------------------------
// CalibrationMonitor

CalibrationMonitor::CalibrationMonitor(CalibrationMonitorConfig config,
                                       AlertSink* sink)
    : config_(std::move(config)),
      sink_(sink),
      abs_z_(config_.window),
      nll_(config_.window),
      breached_(config_.nominal_levels.size(), false) {
  level_z_.reserve(config_.nominal_levels.size());
  for (double level : config_.nominal_levels)
    level_z_.push_back(central_interval_z(level));  // validates the level
}

void CalibrationMonitor::observe(double mean, double var, double target) {
  APDS_CHECK(var > 0.0);
  const double sd = std::sqrt(var);
  MutexLock lock(&mu_);
  abs_z_.push(std::fabs(target - mean) / sd);
  nll_.push(gaussian_nll(target, mean, var));
  check_alerts_locked();
}

void CalibrationMonitor::observe_batch(std::span<const double> mean,
                                       std::span<const double> var,
                                       std::span<const double> target) {
  APDS_CHECK(mean.size() == var.size() && mean.size() == target.size());
  for (std::size_t i = 0; i < mean.size(); ++i)
    observe(mean[i], var[i], target[i]);
}

std::size_t CalibrationMonitor::count() const {
  MutexLock lock(&mu_);
  return abs_z_.total();
}

std::vector<CalibrationMonitor::Coverage> CalibrationMonitor::coverage()
    const {
  MutexLock lock(&mu_);
  std::vector<Coverage> out;
  out.reserve(config_.nominal_levels.size());
  const std::span<const double> zs = abs_z_.values();
  for (std::size_t l = 0; l < config_.nominal_levels.size(); ++l) {
    std::size_t inside = 0;
    for (double z : zs)
      if (z <= level_z_[l]) ++inside;
    const double empirical =
        zs.empty() ? 0.0
                   : static_cast<double>(inside) /
                         static_cast<double>(zs.size());
    out.push_back({config_.nominal_levels[l], empirical});
  }
  return out;
}

double CalibrationMonitor::nll() const {
  MutexLock lock(&mu_);
  return nll_.mean();
}

void CalibrationMonitor::reset() {
  MutexLock lock(&mu_);
  abs_z_.clear();
  nll_.clear();
  std::fill(breached_.begin(), breached_.end(), false);
}

void CalibrationMonitor::check_alerts_locked() {
  if (sink_ == nullptr || abs_z_.total() < config_.min_count) return;
  const std::span<const double> zs = abs_z_.values();
  for (std::size_t l = 0; l < config_.nominal_levels.size(); ++l) {
    std::size_t inside = 0;
    for (double z : zs)
      if (z <= level_z_[l]) ++inside;
    const double empirical =
        static_cast<double>(inside) / static_cast<double>(zs.size());
    const double gap = std::fabs(empirical - config_.nominal_levels[l]);
    const bool breach = gap > config_.coverage_tolerance;
    if (breach && !breached_[l]) {
      std::ostringstream msg;
      msg << "windowed coverage " << empirical << " at nominal level "
          << config_.nominal_levels[l] << " is off by " << gap
          << " (tolerance " << config_.coverage_tolerance << ", window "
          << zs.size() << ")";
      sink_->raise(
          {"calibration", msg.str(), gap, config_.coverage_tolerance});
    }
    breached_[l] = breach;
  }
}

// ---------------------------------------------------------------------------
// DriftMonitor

DriftMonitor::DriftMonitor(DriftMonitorConfig config, AlertSink* sink)
    : config_(config), sink_(sink) {
  APDS_CHECK(config_.window > 0);
}

void DriftMonitor::set_reference(std::span<const double> mean,
                                 std::span<const double> var) {
  APDS_CHECK(mean.size() == var.size());
  APDS_CHECK(!mean.empty());
  for (double v : var) APDS_CHECK(v > 0.0);
  MutexLock lock(&mu_);
  ref_mean_.assign(mean.begin(), mean.end());
  ref_var_.assign(var.begin(), var.end());
  windows_.clear();
  for (std::size_t f = 0; f < mean.size(); ++f)
    windows_.emplace_back(config_.window);
  breached_.assign(mean.size(), false);
  rows_ = 0;
}

bool DriftMonitor::has_reference() const {
  MutexLock lock(&mu_);
  return !ref_mean_.empty();
}

std::size_t DriftMonitor::dim() const {
  MutexLock lock(&mu_);
  return ref_mean_.size();
}

void DriftMonitor::observe(std::span<const double> features) {
  MutexLock lock(&mu_);
  APDS_CHECK_MSG(!ref_mean_.empty(),
                 "DriftMonitor::observe before set_reference");
  APDS_CHECK(features.size() == ref_mean_.size());
  for (std::size_t f = 0; f < features.size(); ++f)
    windows_[f].push(features[f]);
  ++rows_;
  check_alerts_locked();
}

double DriftMonitor::feature_z_locked(std::size_t f) const {
  const SlidingWindow& w = windows_[f];
  if (w.size() == 0) return 0.0;
  // Standard error of the window mean under the frozen reference.
  const double se =
      std::sqrt(ref_var_[f] / static_cast<double>(w.size()));
  return (w.mean() - ref_mean_[f]) / se;
}

std::size_t DriftMonitor::count() const {
  MutexLock lock(&mu_);
  return rows_;
}

std::vector<DriftMonitor::FeatureDrift> DriftMonitor::drift() const {
  MutexLock lock(&mu_);
  std::vector<FeatureDrift> out;
  out.reserve(ref_mean_.size());
  for (std::size_t f = 0; f < ref_mean_.size(); ++f) {
    FeatureDrift d;
    d.ref_mean = ref_mean_[f];
    d.ref_var = ref_var_[f];
    d.window_mean = windows_[f].mean();
    d.z = feature_z_locked(f);
    if (windows_[f].size() > 1) {
      const KsResult ks = ks_test_gaussian(windows_[f].values(), ref_mean_[f],
                                           std::sqrt(ref_var_[f]));
      d.ks_stat = ks.statistic;
      d.ks_p = ks.p_value;
    }
    out.push_back(d);
  }
  return out;
}

double DriftMonitor::max_abs_z() const {
  MutexLock lock(&mu_);
  double max_z = 0.0;
  for (std::size_t f = 0; f < ref_mean_.size(); ++f)
    max_z = std::max(max_z, std::fabs(feature_z_locked(f)));
  return max_z;
}

void DriftMonitor::reset() {
  MutexLock lock(&mu_);
  for (SlidingWindow& w : windows_) w.clear();
  std::fill(breached_.begin(), breached_.end(), false);
  rows_ = 0;
}

void DriftMonitor::check_alerts_locked() {
  if (sink_ == nullptr || rows_ < config_.min_count) return;
  // The KS test sorts the window, so amortize it: run only when a full
  // window's worth of fresh rows has accumulated.
  const bool run_ks = config_.ks_p_threshold > 0.0 &&
                      windows_[0].size() == config_.window &&
                      rows_ % config_.window == 0;
  for (std::size_t f = 0; f < ref_mean_.size(); ++f) {
    const double z = feature_z_locked(f);
    bool breach = std::fabs(z) > config_.z_threshold;
    double value = std::fabs(z);
    double threshold = config_.z_threshold;
    std::string what = "window-mean z-score";
    if (!breach && run_ks) {
      const KsResult ks = ks_test_gaussian(windows_[f].values(), ref_mean_[f],
                                           std::sqrt(ref_var_[f]));
      if (ks.p_value < config_.ks_p_threshold) {
        breach = true;
        value = ks.p_value;
        threshold = config_.ks_p_threshold;
        what = "KS p-value";
      }
    }
    if (breach && !breached_[f]) {
      std::ostringstream msg;
      msg << "feature " << f << " drifted: " << what << " " << value
          << " vs threshold " << threshold << " (window mean "
          << windows_[f].mean() << ", reference mean " << ref_mean_[f] << ")";
      sink_->raise({"drift", msg.str(), value, threshold});
    }
    // Only the z criterion is re-evaluated every row; keep the latch on the
    // z state so a KS-only breach does not re-fire every full window.
    if (breach || std::fabs(z) <= config_.z_threshold * 0.9)
      breached_[f] = breach;
  }
}

}  // namespace apds::obs
