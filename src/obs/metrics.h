// Named counters, gauges, and fixed-bucket latency histograms for the
// inference stack, exportable as JSON (`metrics.json` under `--obs-dir` on
// benches and examples). Complements the span tracing in obs/trace.h: spans answer
// "where did the time go", metrics answer "how many / how much".
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "stats/histogram.h"
#include "stats/running_stats.h"

namespace apds {

/// Monotonic event count (e.g. `mcdrop.samples`). Thread-safe.
class Counter {
 public:
  void increment() { add(1); }
  void add(std::int64_t delta) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  std::int64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Last-written scalar (e.g. `train.loss`). Thread-safe.
class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { set(0.0); }

 private:
  std::atomic<double> value_{0.0};
};

/// Most recent (request id, value) pair that landed in one histogram
/// bucket — the exemplar linking a latency bucket back to a replayable
/// request trace (exported in `metrics.json`; resolve it with
/// `apds_report <obs-dir> --request <id>`). request_id 0 means the bucket has
/// none.
struct Exemplar {
  std::uint64_t request_id = 0;
  double value_ms = 0.0;
};

/// Fixed-bucket latency histogram plus streaming mean/min/max, built on
/// stats/histogram.h and stats/running_stats.h. Buckets are log-spaced:
/// equal widths in log10(ms) over [lo_ms, hi_ms) (edges
/// lo * (hi/lo)^(b/bins), so lo_ms must be > 0), and percentiles
/// interpolate geometrically within a bucket, so sub-millisecond and
/// 100 ms latencies get the same relative resolution. Out-of-range
/// observations (zero and NaN included) clamp to the edge buckets
/// (Histogram semantics), so the count is exact even when the range is
/// misjudged. Thread-safe.
///
/// When an observation is made under an active RequestContext (directly or
/// via the explicit overload), its bucket retains the request id + value as
/// an exemplar; observations with no request attached cost nothing extra.
class LatencyHistogram {
 public:
  /// Throws InvalidArgument unless 0 < lo_ms < hi_ms and bins > 0.
  LatencyHistogram(double lo_ms, double hi_ms, std::size_t bins);

  /// Observe under the calling thread's current request context.
  void observe(double ms);
  /// Observe attributed to an explicit request id (0 = no exemplar).
  void observe(double ms, std::uint64_t request_id);

  /// Per-bucket exemplars (empty vector until the first attributed
  /// observation; entries with request_id 0 are buckets without one).
  std::vector<Exemplar> exemplars() const;

  std::size_t count() const;
  /// Copies of the accumulated state (consistent snapshot under the lock).
  RunningStats stats() const;
  /// Bucket counts; the Histogram's bins span log10(ms).
  Histogram buckets() const;
  /// Interpolated percentile (p in [0, 1]) reconstructed from the buckets:
  /// geometric within the bucket the rank falls into, clamped to the exact
  /// streamed min/max so the edge quantiles stay honest even though the
  /// bucket grid is coarse. Returns 0.0 when no observations were made.
  double percentile(double p) const;
  double p50_ms() const { return percentile(0.50); }
  double p95_ms() const { return percentile(0.95); }
  double p99_ms() const { return percentile(0.99); }
  double lo_ms() const { return lo_ms_; }
  double hi_ms() const { return hi_ms_; }

  void reset();

 private:
  /// log10(ms), with values at or below lo_ms (and NaN) pinned to lo_ms.
  double coord(double ms) const;
  std::size_t bucket_index(double ms) const;  ///< clamped, mirrors Histogram

  double lo_ms_;
  double hi_ms_;
  std::size_t bins_;
  mutable Mutex mu_;
  Histogram hist_ APDS_GUARDED_BY(mu_);
  RunningStats stats_ APDS_GUARDED_BY(mu_);
  /// Sized lazily on first exemplar.
  std::vector<Exemplar> exemplars_ APDS_GUARDED_BY(mu_);
};

/// Registry of named metrics. Lookup creates on first use and returns a
/// stable reference, so call sites can cache `Counter&` across calls.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;

  /// The process-wide registry the instrumented library code reports to.
  static MetricsRegistry& instance();

  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  /// The default layout is the request-latency one: 32 log-spaced buckets
  /// over 1 us-100 ms (~1.43x per bucket), so a sub-millisecond p50 is
  /// resolved instead of clamped into the first bucket. Range/bins apply
  /// on first creation only; later lookups by the same name return the
  /// existing histogram.
  LatencyHistogram& histogram(const std::string& name, double lo_ms = 1e-3,
                              double hi_ms = 100.0, std::size_t bins = 32);

  /// {"counters":{...},"gauges":{...},"histograms":{...}}. Keys within each
  /// section are emitted in sorted (std::map) order, so two exports of the
  /// same registry state are byte-identical and diffable across runs.
  /// Histograms with exemplars gain an "exemplars" array of
  /// {"bucket","request_id","value_ms"} objects.
  void write_json(std::ostream& os) const;
  std::string to_json() const;
  /// Throws IoError on failure.
  void write_json_file(const std::string& path) const;

  /// Zero every metric (objects and references stay valid).
  void reset();

  std::size_t num_metrics() const;

 private:
  mutable Mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_
      APDS_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Gauge>> gauges_ APDS_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<LatencyHistogram>> histograms_
      APDS_GUARDED_BY(mu_);
};

}  // namespace apds
