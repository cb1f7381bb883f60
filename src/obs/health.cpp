#include "obs/health.h"

#include <fstream>
#include <ostream>
#include <sstream>

#include "common/error.h"
#include "obs/trace.h"

namespace apds::obs {

// ---------------------------------------------------------------------------
// JSON

void HealthSnapshot::write_json(std::ostream& os) const {
  os << "{\n\"calibration\":{\"count\":" << calibration_count
     << ",\"nll\":" << nll << ",\"coverage\":[";
  for (std::size_t i = 0; i < coverage.size(); ++i) {
    if (i) os << ",";
    os << "{\"nominal\":" << coverage[i].nominal
       << ",\"empirical\":" << coverage[i].empirical << "}";
  }
  os << "]},\n\"drift\":{\"rows\":" << drift_rows
     << ",\"max_abs_z\":" << max_abs_z << ",\"features\":[";
  for (std::size_t f = 0; f < drift.size(); ++f) {
    const auto& d = drift[f];
    if (f) os << ",";
    os << "{\"ref_mean\":" << d.ref_mean << ",\"ref_var\":" << d.ref_var
       << ",\"window_mean\":" << d.window_mean << ",\"z\":" << d.z
       << ",\"ks_stat\":" << d.ks_stat << ",\"ks_p\":" << d.ks_p << "}";
  }
  os << "]},\n\"alerts\":[";
  for (std::size_t a = 0; a < alerts.size(); ++a) {
    const Alert& alert = alerts[a];
    if (a) os << ",";
    os << "\n{\"monitor\":\"" << json_escape(alert.monitor)
       << "\",\"message\":\"" << json_escape(alert.message)
       << "\",\"value\":" << alert.value
       << ",\"threshold\":" << alert.threshold << "}";
  }
  os << "\n]\n}\n";
}

std::string HealthSnapshot::to_json() const {
  std::ostringstream os;
  write_json(os);
  return os.str();
}

void HealthSnapshot::write_json_file(const std::string& path) const {
  std::ofstream os(path, std::ios::trunc);
  if (!os) throw IoError("cannot open health file for writing: " + path);
  write_json(os);
  if (!os) throw IoError("health file write failure: " + path);
}

// ---------------------------------------------------------------------------
// HealthMonitor

HealthMonitor::HealthMonitor()
    : calibration_(CalibrationMonitorConfig{}, &alerts_),
      drift_(DriftMonitorConfig{}, &alerts_) {}

HealthMonitor& HealthMonitor::instance() {
  static HealthMonitor monitor;
  return monitor;
}

HealthSnapshot HealthMonitor::snapshot() const {
  HealthSnapshot snap;
  snap.calibration_count = calibration_.count();
  snap.coverage = calibration_.coverage();
  snap.nll = calibration_.nll();
  snap.drift_rows = drift_.count();
  snap.drift = drift_.drift();
  snap.max_abs_z = drift_.max_abs_z();
  snap.alerts = alerts_.alerts();
  return snap;
}

void HealthMonitor::reset() {
  calibration_.reset();
  drift_.reset();
  alerts_.clear();
}

}  // namespace apds::obs
