// Flight recorder: a fixed-size lock-free ring of the last N completed
// request records — id, start/duration, per-layer timings, input stats,
// predicted mean/variance, heap allocations — giving a post-hoc view of the
// requests surrounding an incident without keeping a full trace on all the
// time.
//
// Cost model: the ring is always on; completing a request claims one slot
// (one fetch_add) and publishes it through a per-slot seqlock whose fields
// are all relaxed atomics, so recording never blocks and readers
// (snapshot/dump) never block writers. Dumps are written as JSON on
// session exit (`<obs-dir>/flight.json`) and on SIGUSR1 (at the next
// completed request).
//
// RequestScope is the producer: an RAII frame around one inference request
// that allocates the request id, installs the trace context (so per-layer
// spans and pool workers attribute to it), feeds the request-latency
// histogram (whose buckets retain the id as an exemplar), and submits the
// completed record here.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "obs/request_context.h"
#include "obs/trace.h"

namespace apds::obs {

/// Per-layer timing capacity of one record; deeper networks drop the tail
/// (n_layers still counts every layer that ran).
inline constexpr std::size_t kFlightMaxLayers = 16;

/// One completed request, plain data. start_us is on the TraceCollector
/// timeline (microseconds since collector epoch) so records join up with
/// trace.json spans.
struct RequestRecord {
  std::uint64_t request_id = 0;
  double start_us = 0.0;
  double dur_ms = 0.0;
  std::uint32_t n_layers = 0;
  float layer_ms[kFlightMaxLayers] = {};
  double input_mean = 0.0;
  double input_absmax = 0.0;
  double pred_mean = 0.0;
  double pred_var = 0.0;
  /// Heap activity on the request's thread while the scope was open
  /// (operator-new calls / bytes requested; see obs/alloc_stats.h). The
  /// zero-alloc steady-state work drives these to 0.
  std::uint64_t allocs = 0;
  std::uint64_t alloc_bytes = 0;
  /// InferenceSession id the request ran through (0 = no session, e.g.
  /// MCDrop or moment_rnn). Lets flight dumps segment per
  /// model when one process serves several.
  std::uint64_t session = 0;
};

/// The ring. Thread-safe for any mix of writers and readers; a snapshot
/// taken while a slot is being overwritten skips that slot rather than
/// returning a torn record.
class FlightRecorder {
 public:
  static constexpr std::size_t kDefaultCapacity = 256;

  explicit FlightRecorder(std::size_t capacity = kDefaultCapacity);

  /// The process-wide recorder RequestScope submits to.
  static FlightRecorder& instance();

  std::size_t capacity() const { return capacity_; }
  /// Requests ever recorded (the ring keeps the last capacity() of them).
  std::uint64_t completed() const {
    return head_.load(std::memory_order_relaxed);
  }

  /// Publish one completed request (overwrites the oldest slot when full).
  /// Also services a pending SIGUSR1 dump request.
  void record(const RequestRecord& record);

  /// Consistent copies of the currently-published records, newest first.
  std::vector<RequestRecord> snapshot() const;

  /// {"capacity":...,"completed":...,"requests":[...]}
  /// with requests newest first.
  void write_json(std::ostream& os) const;
  std::string to_json() const;
  /// Throws IoError on failure.
  void write_json_file(const std::string& path) const;
  /// Write the ring to `<dir>/flight.json`, or to "apds_flight.json" in
  /// the working directory when no dump directory is set; returns the
  /// path written. Throws IoError on failure.
  std::string dump() const;

  /// Directory dumps go to (`--obs-dir` wires this); empty sends dump()
  /// to the working directory.
  void set_dump_dir(const std::string& dir);
  std::string dump_dir() const;

  /// Install a SIGUSR1 handler that requests a dump; the dump itself is
  /// written by the next record() call (signal context only sets a flag).
  static void install_sigusr1_handler();
  /// What the handler does — async-signal-safe, also callable from tests.
  static void request_dump();

  /// Drop all records and zero completed() (for tests).
  void clear();

 private:
  // Per-slot seqlock over relaxed-atomic fields: seq is odd while the slot
  // is being written, 2*serial+2 once record number `serial` is published.
  // Readers copy the fields between two matching even seq loads. Torn data
  // is only conceivable when writers lap the ring inside one snapshot —
  // and then the seq mismatch discards the slot.
  struct Slot {
    std::atomic<std::uint64_t> seq{0};
    std::atomic<std::uint64_t> request_id{0};
    std::atomic<double> start_us{0.0};
    std::atomic<double> dur_ms{0.0};
    std::atomic<std::uint32_t> n_layers{0};
    std::atomic<float> layer_ms[kFlightMaxLayers] = {};
    std::atomic<double> input_mean{0.0};
    std::atomic<double> input_absmax{0.0};
    std::atomic<double> pred_mean{0.0};
    std::atomic<double> pred_var{0.0};
    std::atomic<std::uint64_t> allocs{0};
    std::atomic<std::uint64_t> alloc_bytes{0};
    std::atomic<std::uint64_t> session{0};
  };

  /// Copy-out one slot if currently published; false on empty/in-flux.
  bool read_slot(const Slot& slot, RequestRecord* out) const;

  std::size_t capacity_;
  std::unique_ptr<Slot[]> slots_;
  std::atomic<std::uint64_t> head_{0};  ///< next record serial

  mutable Mutex dump_mu_;
  std::string dump_dir_ APDS_GUARDED_BY(dump_mu_);
};

/// RAII frame for one inference request. Construct before running the
/// model, annotate with input stats / prediction / per-layer timings, and
/// destruction publishes the record, observes the "request.latency_ms"
/// histogram (attributed, so the bucket keeps this request as exemplar)
/// and bumps the "request.count" counter.
///
/// Scopes nest per thread (LIFO); current() returns the innermost, which
/// is what the per-layer timers in core/ report to.
class RequestScope {
 public:
  RequestScope();
  ~RequestScope();

  RequestScope(const RequestScope&) = delete;
  RequestScope& operator=(const RequestScope&) = delete;

  /// The calling thread's innermost open scope (nullptr outside one).
  /// Pool workers do NOT see the submitting thread's scope — layer timings
  /// are recorded by the thread that owns the request.
  static RequestScope* current();

  std::uint64_t request_id() const { return record_.request_id; }

  /// Append one layer's duration (layers beyond kFlightMaxLayers are
  /// counted but not timed).
  void add_layer_ms(double ms);
  void set_input_stats(double mean, double absmax);
  /// Convenience: mean and max|x| of the request's input payload.
  void set_input_stats(std::span<const double> x);
  void set_prediction(double mean, double variance);
  /// Attribute this request to an InferenceSession (sessions call this on
  /// entry to propagate; the last writer wins for nested/multi-model runs).
  void set_session(std::uint64_t session_id) { record_.session = session_id; }

 private:
  // Installs the request context for the thread; declared before span_ so
  // the root span opens under (and closes inside) this request's context.
  struct ContextBegin {
    ContextBegin();
    ~ContextBegin();
    RequestContext saved;
  };

  ContextBegin begin_;
  TraceSpan span_;
  RequestRecord record_;
  std::uint64_t allocs_before_ = 0;       ///< thread alloc counters at open
  std::uint64_t alloc_bytes_before_ = 0;
  RequestScope* prev_ = nullptr;  ///< enclosing scope on this thread
};

/// RAII layer timer feeding RequestScope::current(); inert (two loads)
/// when no request is open on this thread.
class FlightLayerTimer {
 public:
  FlightLayerTimer() : scope_(RequestScope::current()) {
    if (scope_) start_us_ = TraceCollector::instance().now_us();
  }
  ~FlightLayerTimer() {
    if (scope_)
      scope_->add_layer_ms(
          (TraceCollector::instance().now_us() - start_us_) * 1e-3);
  }

  FlightLayerTimer(const FlightLayerTimer&) = delete;
  FlightLayerTimer& operator=(const FlightLayerTimer&) = delete;

 private:
  RequestScope* scope_;
  double start_us_ = 0.0;
};

}  // namespace apds::obs
