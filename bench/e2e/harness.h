// Shared pieces of the end-to-end benchmark: the clock, order statistics,
// the spans of traced runs, and the output checks.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/gaussian_vec.h"
#include "obs/trace.h"

namespace e2e {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Linear-interpolated quantile (q in [0, 1]) of `v`; NaN when empty.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// Independent, decorrelated 64-bit seed for (seed, tag).
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t tag);

/// One named value with its unit, as printed and written to JSON.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Spans of a traced run: a request root span per request and a child span
/// per public call, kept in memory by a TraceCollector private to the
/// benchmark and written when the run ends. The library's own tracer
/// (TraceCollector::instance()) stays off.
struct RequestTrace {
  apds::TraceCollector collector;
  std::uint64_t request = 0;  ///< request being served
  std::uint64_t root = 0;     ///< its root span id
  std::uint64_t next_span = 1;
};

/// RAII span around one library call, parented under the current request's
/// root; a no-op when `trace` is null.
class CallSpan {
 public:
  CallSpan(RequestTrace* trace, const char* name)
      : trace_(trace), name_(name), start_us_(trace ? trace->collector.now_us() : 0.0) {}
  ~CallSpan() {
    if (!trace_) return;
    apds::TraceEvent e;
    e.name = name_;
    e.category = "call";
    e.ts_us = start_us_;
    e.dur_us = trace_->collector.now_us() - start_us_;
    e.request_id = trace_->request;
    e.span_id = trace_->next_span++;
    e.parent_span_id = trace_->root;
    trace_->collector.record(std::move(e));
  }
  CallSpan(const CallSpan&) = delete;
  CallSpan& operator=(const CallSpan&) = delete;

 private:
  RequestTrace* trace_;
  const char* name_;
  double start_us_;
};

/// Largest |a - b| / (|a| + 1) over two matrices of one shape — the scaled
/// difference of tests/test_precision.cpp, `a` being the reference. Shape
/// mismatch counts as infinite.
double max_scaled_diff(const apds::Matrix& a, const apds::Matrix& b);

/// Right shape, finite mean, finite variance >= var_floor.
bool well_formed(const apds::Matrix& mean, const apds::Matrix& var,
                 std::size_t rows, std::size_t cols, double var_floor = 0.0);
inline bool well_formed(const apds::MeanVar& out, std::size_t rows,
                        std::size_t cols) {
  return well_formed(out.mean, out.var, rows, cols);
}

/// A probability vector of n finite entries in [0, 1] summing to 1.
bool valid_probs(std::span<const double> p, std::size_t n);

}  // namespace e2e
