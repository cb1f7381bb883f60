#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <ostream>
#include <sstream>

#include "common/error.h"
#include "obs/request_context.h"
#include "obs/trace.h"

namespace apds {

LatencyHistogram::LatencyHistogram(double lo_ms, double hi_ms,
                                   std::size_t bins)
    : lo_ms_(lo_ms),
      hi_ms_(hi_ms),
      bins_(bins),
      hist_(coord(lo_ms), coord(hi_ms), bins) {
  APDS_CHECK_MSG(lo_ms > 0.0,
                 "LatencyHistogram: log-spaced buckets need lo_ms > 0, got "
                     << lo_ms);
}

double LatencyHistogram::coord(double ms) const {
  return std::log10(ms > lo_ms_ ? ms : lo_ms_);
}

std::size_t LatencyHistogram::bucket_index(double ms) const {
  // Same clamp-to-edge-buckets semantics Histogram::add applies.
  if (!(ms > lo_ms_)) return 0;
  if (ms >= hi_ms_) return bins_ - 1;
  const double lo = coord(lo_ms_);
  const double width = (coord(hi_ms_) - lo) / static_cast<double>(bins_);
  const auto b = static_cast<std::size_t>((coord(ms) - lo) / width);
  return std::min(b, bins_ - 1);
}

void LatencyHistogram::observe(double ms) {
  observe(ms, obs::current_request_context().request_id);
}

void LatencyHistogram::observe(double ms, std::uint64_t request_id) {
  MutexLock lock(&mu_);
  hist_.add(coord(ms));
  stats_.add(ms);
  if (request_id != 0) {
    if (exemplars_.empty()) exemplars_.resize(bins_);
    exemplars_[bucket_index(ms)] = Exemplar{request_id, ms};
  }
}

std::vector<Exemplar> LatencyHistogram::exemplars() const {
  MutexLock lock(&mu_);
  return exemplars_;
}

std::size_t LatencyHistogram::count() const {
  MutexLock lock(&mu_);
  return hist_.total();
}

RunningStats LatencyHistogram::stats() const {
  MutexLock lock(&mu_);
  return stats_;
}

Histogram LatencyHistogram::buckets() const {
  MutexLock lock(&mu_);
  return hist_;
}

double LatencyHistogram::percentile(double p) const {
  APDS_CHECK(p >= 0.0 && p <= 1.0);
  MutexLock lock(&mu_);
  const std::size_t total = hist_.total();
  if (total == 0) return 0.0;
  // Walk the buckets until the cumulative count crosses the target rank,
  // then interpolate linearly inside that bucket in log10(ms), i.e.
  // geometrically in ms.
  const double rank = p * static_cast<double>(total);
  const double lo = coord(lo_ms_);
  const double bin_width =
      (coord(hi_ms_) - lo) / static_cast<double>(hist_.bins());
  double cumulative = 0.0;
  double value = hi_ms_;
  for (std::size_t b = 0; b < hist_.bins(); ++b) {
    const double in_bin = static_cast<double>(hist_.count(b));
    if (cumulative + in_bin >= rank) {
      const double frac = in_bin > 0.0 ? (rank - cumulative) / in_bin : 0.0;
      const double at = lo + (static_cast<double>(b) + frac) * bin_width;
      value = std::pow(10.0, at);
      break;
    }
    cumulative += in_bin;
  }
  // Out-of-range observations clamp into the edge buckets, so bound the
  // reconstruction by the exact streamed extremes.
  return std::min(std::max(value, stats_.min()), stats_.max());
}

void LatencyHistogram::reset() {
  MutexLock lock(&mu_);
  hist_ = Histogram(coord(lo_ms_), coord(hi_ms_), bins_);
  stats_ = RunningStats();
  exemplars_.clear();
}

MetricsRegistry& MetricsRegistry::instance() {
  static MetricsRegistry registry;
  return registry;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  MutexLock lock(&mu_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  MutexLock lock(&mu_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

LatencyHistogram& MetricsRegistry::histogram(const std::string& name,
                                             double lo_ms, double hi_ms,
                                             std::size_t bins) {
  MutexLock lock(&mu_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<LatencyHistogram>(lo_ms, hi_ms, bins);
  return *slot;
}

void MetricsRegistry::write_json(std::ostream& os) const {
  MutexLock lock(&mu_);
  os << "{\n\"counters\":{";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    if (!first) os << ",";
    first = false;
    os << "\n\"" << json_escape(name) << "\":" << c->value();
  }
  os << "\n},\n\"gauges\":{";
  first = true;
  for (const auto& [name, g] : gauges_) {
    if (!first) os << ",";
    first = false;
    os << "\n\"" << json_escape(name) << "\":" << g->value();
  }
  os << "\n},\n\"histograms\":{";
  first = true;
  for (const auto& [name, h] : histograms_) {
    if (!first) os << ",";
    first = false;
    const Histogram buckets = h->buckets();
    const RunningStats stats = h->stats();
    os << "\n\"" << json_escape(name) << "\":{\"lo_ms\":" << h->lo_ms()
       << ",\"hi_ms\":" << h->hi_ms() << ",\"count\":" << buckets.total();
    if (stats.count() > 0)
      os << ",\"mean_ms\":" << stats.mean() << ",\"min_ms\":" << stats.min()
         << ",\"max_ms\":" << stats.max() << ",\"p50_ms\":" << h->p50_ms()
         << ",\"p95_ms\":" << h->p95_ms() << ",\"p99_ms\":" << h->p99_ms();
    os << ",\"buckets\":[";
    for (std::size_t b = 0; b < buckets.bins(); ++b) {
      if (b > 0) os << ",";
      os << buckets.count(b);
    }
    os << "]";
    const std::vector<Exemplar> exemplars = h->exemplars();
    bool any_exemplar = false;
    for (const Exemplar& e : exemplars) any_exemplar |= e.request_id != 0;
    if (any_exemplar) {
      os << ",\"exemplars\":[";
      bool first_ex = true;
      for (std::size_t b = 0; b < exemplars.size(); ++b) {
        if (exemplars[b].request_id == 0) continue;
        if (!first_ex) os << ",";
        first_ex = false;
        os << "{\"bucket\":" << b
           << ",\"request_id\":" << exemplars[b].request_id
           << ",\"value_ms\":" << exemplars[b].value_ms << "}";
      }
      os << "]";
    }
    os << "}";
  }
  os << "\n}\n}\n";
}

std::string MetricsRegistry::to_json() const {
  std::ostringstream os;
  write_json(os);
  return os.str();
}

void MetricsRegistry::write_json_file(const std::string& path) const {
  std::ofstream os(path, std::ios::trunc);
  if (!os) throw IoError("cannot open metrics file for writing: " + path);
  write_json(os);
  if (!os) throw IoError("metrics file write failure: " + path);
}

void MetricsRegistry::reset() {
  MutexLock lock(&mu_);
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, g] : gauges_) g->reset();
  for (auto& [name, h] : histograms_) h->reset();
}

std::size_t MetricsRegistry::num_metrics() const {
  MutexLock lock(&mu_);
  return counters_.size() + gauges_.size() + histograms_.size();
}

}  // namespace apds
