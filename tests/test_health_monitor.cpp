#include "obs/monitor.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "json_check.h"
#include "obs/health.h"

namespace apds::obs {
namespace {

// ---------------------------------------------------------------------------
// SlidingWindow

TEST(SlidingWindowTest, RingEvictsOldestAndTracksLifetimeTotal) {
  SlidingWindow w(3);
  for (double v : {1.0, 2.0, 3.0, 4.0, 5.0}) w.push(v);
  EXPECT_EQ(w.size(), 3u);
  EXPECT_EQ(w.total(), 5u);
  EXPECT_NEAR(w.mean(), (3.0 + 4.0 + 5.0) / 3.0, 1e-12);
  const auto held = w.values();
  std::vector<double> sorted(held.begin(), held.end());
  std::sort(sorted.begin(), sorted.end());
  ASSERT_EQ(sorted.size(), 3u);
  EXPECT_EQ(sorted.front(), 3.0);
  EXPECT_EQ(sorted.back(), 5.0);
  w.clear();
  EXPECT_EQ(w.size(), 0u);
  EXPECT_EQ(w.total(), 0u);
}

// ---------------------------------------------------------------------------
// CalibrationMonitor

TEST(CalibrationMonitorTest, CoverageConvergesToNominalWhenCalibrated) {
  AlertSink sink;
  CalibrationMonitorConfig cfg;
  cfg.window = 4096;
  CalibrationMonitor mon(cfg, &sink);
  Rng rng(17);
  for (std::size_t i = 0; i < 4096; ++i) {
    const double mean = rng.normal(0.0, 3.0);
    const double sd = rng.uniform(0.5, 2.0);
    mon.observe(mean, sd * sd, mean + rng.normal(0.0, sd));
  }
  const auto cov = mon.coverage();
  ASSERT_EQ(cov.size(), cfg.nominal_levels.size());
  for (const auto& c : cov)
    EXPECT_NEAR(c.empirical, c.nominal, 0.03) << "level " << c.nominal;
  // A well-specified unit-free Gaussian stream should stay well within the
  // coverage tolerance: no alerts.
  EXPECT_EQ(sink.count(), 0u);
  // Windowed NLL of a calibrated stream is near the analytic expectation
  // 0.5*log(2*pi*sd^2) + 0.5 averaged over sd ~ U(0.5, 2).
  EXPECT_GT(mon.nll(), 0.5);
  EXPECT_LT(mon.nll(), 2.5);
}

TEST(CalibrationMonitorTest, OverconfidentStreamRaisesCoverageAlert) {
  AlertSink sink;
  CalibrationMonitorConfig cfg;
  cfg.min_count = 64;
  CalibrationMonitor mon(cfg, &sink);
  Rng rng(18);
  // Claims sd = 0.1 while the truth spreads sd = 1: coverage collapses.
  for (std::size_t i = 0; i < 256; ++i)
    mon.observe(0.0, 0.01, rng.normal());
  ASSERT_GE(sink.count(), 1u);
  const auto alerts = sink.alerts();
  EXPECT_EQ(alerts.front().monitor, "calibration");
  // Edge-triggered: a persistent breach must not alert once per observation.
  EXPECT_LE(sink.count(), cfg.nominal_levels.size());
}

TEST(CalibrationMonitorTest, BatchObserveMatchesScalarObserve) {
  CalibrationMonitor a;
  CalibrationMonitor b;
  const std::vector<double> mean = {0.0, 1.0, -2.0};
  const std::vector<double> var = {1.0, 4.0, 0.25};
  const std::vector<double> target = {0.5, -1.0, -2.1};
  a.observe_batch(mean, var, target);
  for (std::size_t i = 0; i < mean.size(); ++i)
    b.observe(mean[i], var[i], target[i]);
  EXPECT_EQ(a.count(), b.count());
  EXPECT_NEAR(a.nll(), b.nll(), 1e-12);
  const auto ca = a.coverage();
  const auto cb = b.coverage();
  ASSERT_EQ(ca.size(), cb.size());
  for (std::size_t i = 0; i < ca.size(); ++i)
    EXPECT_EQ(ca[i].empirical, cb[i].empirical);
}

// ---------------------------------------------------------------------------
// DriftMonitor

TEST(DriftMonitorTest, QuietOnInDistributionStream) {
  AlertSink sink;
  DriftMonitor mon({}, &sink);
  const std::vector<double> ref_mean = {0.0, 10.0};
  const std::vector<double> ref_var = {1.0, 4.0};
  mon.set_reference(ref_mean, ref_var);
  ASSERT_TRUE(mon.has_reference());
  EXPECT_EQ(mon.dim(), 2u);
  Rng rng(19);
  for (std::size_t i = 0; i < 1024; ++i) {
    const double row[] = {rng.normal(0.0, 1.0), rng.normal(10.0, 2.0)};
    mon.observe(row);
  }
  EXPECT_EQ(sink.count(), 0u);
  EXPECT_LT(mon.max_abs_z(), 4.0);
  const auto drift = mon.drift();
  ASSERT_EQ(drift.size(), 2u);
  for (const auto& d : drift) {
    EXPECT_GT(d.ks_p, 1e-3);  // KS agrees the window matches the reference
    EXPECT_LT(d.ks_stat, 0.2);
  }
}

TEST(DriftMonitorTest, FiresOnMeanShift) {
  AlertSink sink;
  DriftMonitor mon({}, &sink);
  const std::vector<double> ref_mean = {0.0};
  const std::vector<double> ref_var = {1.0};
  mon.set_reference(ref_mean, ref_var);
  Rng rng(20);
  // Shift the serving distribution by +1 sd: with a 256-row window the
  // standardized window-mean shift is ~16, far past the threshold of 6.
  for (std::size_t i = 0; i < 512; ++i) {
    const double row[] = {rng.normal(1.0, 1.0)};
    mon.observe(row);
  }
  ASSERT_GE(sink.count(), 1u);
  EXPECT_EQ(sink.alerts().front().monitor, "drift");
  EXPECT_GT(mon.max_abs_z(), 6.0);
}

TEST(DriftMonitorTest, ObserveBeforeReferenceAndBadShapesThrow) {
  DriftMonitor mon;
  const double row[] = {1.0};
  EXPECT_THROW(mon.observe(row), InvalidArgument);
  const std::vector<double> mean = {0.0, 1.0};
  const std::vector<double> var = {1.0};  // length mismatch
  EXPECT_THROW(mon.set_reference(mean, var), InvalidArgument);
  const std::vector<double> zero_var = {1.0, 0.0};
  EXPECT_THROW(mon.set_reference(mean, zero_var), InvalidArgument);
}

// ---------------------------------------------------------------------------
// HealthSnapshot export

// The monitors hold mutexes, so HealthMonitor is neither copyable nor
// movable — populate a caller-owned instance instead of returning one.
void populate_monitor(HealthMonitor& health) {
  Rng rng(21);
  const std::vector<double> ref_mean = {0.0};
  const std::vector<double> ref_var = {1.0};
  health.drift().set_reference(ref_mean, ref_var);
  for (std::size_t i = 0; i < 128; ++i) {
    const double row[] = {rng.normal()};
    health.drift().observe(row);
    health.calibration().observe(0.0, 1.0, rng.normal());
  }
}

TEST(HealthSnapshotTest, JsonIsValidAndCarriesEverySection) {
  HealthMonitor health;
  populate_monitor(health);
  const HealthSnapshot snap = health.snapshot();
  EXPECT_EQ(snap.calibration_count, 128u);
  EXPECT_EQ(snap.drift_rows, 128u);
  const std::string json = snap.to_json();
  EXPECT_TRUE(apds::testing::json_valid(json)) << json;
  for (const char* key :
       {"\"calibration\"", "\"coverage\"", "\"nll\"", "\"drift\"",
        "\"features\"", "\"max_abs_z\"", "\"alerts\""})
    EXPECT_NE(json.find(key), std::string::npos) << key;
}

TEST(HealthMonitorTest, SnapshotCollectsAlertsAndResetClears) {
  HealthMonitor health;
  const std::vector<double> ref_mean = {0.0};
  const std::vector<double> ref_var = {1.0};
  health.drift().set_reference(ref_mean, ref_var);
  Rng rng(20);
  // The mean shift of DriftMonitorTest.FiresOnMeanShift: +1 sd.
  for (std::size_t i = 0; i < 512; ++i) {
    const double row[] = {rng.normal(1.0, 1.0)};
    health.drift().observe(row);
  }
  HealthSnapshot snap = health.snapshot();
  ASSERT_EQ(snap.alerts.size(), 1u);  // edge-triggered on the shared sink
  EXPECT_EQ(snap.alerts.front().monitor, "drift");
  // The alert also lands in the serialized form.
  EXPECT_NE(snap.to_json().find("\"monitor\":\"drift\""), std::string::npos);

  health.reset();
  snap = health.snapshot();
  EXPECT_EQ(snap.drift_rows, 0u);
  EXPECT_TRUE(snap.alerts.empty());
  EXPECT_TRUE(health.drift().has_reference());  // reset keeps the reference
}

TEST(HealthMonitorTest, GlobalInstanceIsSingleton) {
  EXPECT_EQ(&HealthMonitor::instance(), &HealthMonitor::instance());
}

}  // namespace
}  // namespace apds::obs
