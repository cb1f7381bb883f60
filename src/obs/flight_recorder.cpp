#include "obs/flight_recorder.h"

#include <csignal>
#include <fstream>
#include <ostream>
#include <sstream>

#include "common/error.h"
#include "common/logging.h"
#include "obs/alloc_stats.h"
#include "obs/metrics.h"

namespace apds::obs {

namespace {

// Set from the SIGUSR1 handler; serviced (and cleared) by the next
// record(). Lock-free atomic store is async-signal-safe.
std::atomic<bool> g_dump_requested{false};

extern "C" void flight_sigusr1_handler(int) { FlightRecorder::request_dump(); }

}  // namespace

FlightRecorder::FlightRecorder(std::size_t capacity)
    : capacity_(capacity > 0 ? capacity : kDefaultCapacity),
      slots_(std::make_unique<Slot[]>(capacity_)) {}

FlightRecorder& FlightRecorder::instance() {
  static FlightRecorder recorder;
  return recorder;
}

void FlightRecorder::record(const RequestRecord& record) {
  const std::uint64_t serial = head_.fetch_add(1, std::memory_order_relaxed);
  Slot& slot = slots_[serial % capacity_];
  // Seqlock write: mark odd, publish fields, mark even. The release fence
  // orders the odd mark before the field stores; the final release store
  // orders the fields before the even mark.
  slot.seq.store(2 * serial + 1, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_release);
  slot.request_id.store(record.request_id, std::memory_order_relaxed);
  slot.start_us.store(record.start_us, std::memory_order_relaxed);
  slot.dur_ms.store(record.dur_ms, std::memory_order_relaxed);
  slot.n_layers.store(record.n_layers, std::memory_order_relaxed);
  for (std::size_t i = 0; i < kFlightMaxLayers; ++i)
    slot.layer_ms[i].store(record.layer_ms[i], std::memory_order_relaxed);
  slot.input_mean.store(record.input_mean, std::memory_order_relaxed);
  slot.input_absmax.store(record.input_absmax, std::memory_order_relaxed);
  slot.pred_mean.store(record.pred_mean, std::memory_order_relaxed);
  slot.pred_var.store(record.pred_var, std::memory_order_relaxed);
  slot.allocs.store(record.allocs, std::memory_order_relaxed);
  slot.alloc_bytes.store(record.alloc_bytes, std::memory_order_relaxed);
  slot.session.store(record.session, std::memory_order_relaxed);
  slot.seq.store(2 * serial + 2, std::memory_order_release);

  if (g_dump_requested.exchange(false, std::memory_order_relaxed)) {
    try {
      const std::string path = dump();
      APDS_INFO("flight recorder dumped to " << path << " (SIGUSR1)");
    } catch (const std::exception& e) {
      APDS_WARN("flight recorder dump failed: " << e.what());
    }
  }
}

bool FlightRecorder::read_slot(const Slot& slot, RequestRecord* out) const {
  const std::uint64_t s1 = slot.seq.load(std::memory_order_acquire);
  if (s1 == 0 || (s1 & 1) != 0) return false;  // empty or mid-write
  RequestRecord r;
  r.request_id = slot.request_id.load(std::memory_order_relaxed);
  r.start_us = slot.start_us.load(std::memory_order_relaxed);
  r.dur_ms = slot.dur_ms.load(std::memory_order_relaxed);
  r.n_layers = slot.n_layers.load(std::memory_order_relaxed);
  for (std::size_t i = 0; i < kFlightMaxLayers; ++i)
    r.layer_ms[i] = slot.layer_ms[i].load(std::memory_order_relaxed);
  r.input_mean = slot.input_mean.load(std::memory_order_relaxed);
  r.input_absmax = slot.input_absmax.load(std::memory_order_relaxed);
  r.pred_mean = slot.pred_mean.load(std::memory_order_relaxed);
  r.pred_var = slot.pred_var.load(std::memory_order_relaxed);
  r.allocs = slot.allocs.load(std::memory_order_relaxed);
  r.alloc_bytes = slot.alloc_bytes.load(std::memory_order_relaxed);
  r.session = slot.session.load(std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_acquire);
  if (slot.seq.load(std::memory_order_relaxed) != s1) return false;
  *out = r;
  return true;
}

std::vector<RequestRecord> FlightRecorder::snapshot() const {
  const std::uint64_t head = head_.load(std::memory_order_acquire);
  const std::uint64_t n =
      head < capacity_ ? head : static_cast<std::uint64_t>(capacity_);
  std::vector<RequestRecord> out;
  out.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) {
    const std::uint64_t serial = head - 1 - i;  // newest first
    RequestRecord r;
    if (read_slot(slots_[serial % capacity_], &r)) out.push_back(r);
  }
  return out;
}

void FlightRecorder::write_json(std::ostream& os) const {
  const auto records = snapshot();
  os << "{\"capacity\":" << capacity_ << ",\"completed\":" << completed()
     << ",\"requests\":[";
  for (std::size_t i = 0; i < records.size(); ++i) {
    const RequestRecord& r = records[i];
    if (i) os << ",";
    os << "\n{\"request_id\":" << r.request_id << ",\"start_us\":"
       << r.start_us << ",\"dur_ms\":" << r.dur_ms << ",\"layers_ms\":[";
    const std::uint32_t timed =
        r.n_layers < kFlightMaxLayers
            ? r.n_layers
            : static_cast<std::uint32_t>(kFlightMaxLayers);
    for (std::uint32_t l = 0; l < timed; ++l) {
      if (l) os << ",";
      os << r.layer_ms[l];
    }
    os << "],\"n_layers\":" << r.n_layers
       << ",\"input_mean\":" << r.input_mean
       << ",\"input_absmax\":" << r.input_absmax
       << ",\"pred_mean\":" << r.pred_mean << ",\"pred_var\":" << r.pred_var
       << ",\"allocs\":" << r.allocs << ",\"alloc_bytes\":" << r.alloc_bytes
       << ",\"session\":" << r.session << "}";
  }
  os << "\n]}\n";
}

std::string FlightRecorder::to_json() const {
  std::ostringstream os;
  write_json(os);
  return os.str();
}

void FlightRecorder::write_json_file(const std::string& path) const {
  std::ofstream os(path, std::ios::trunc);
  if (!os) throw IoError("cannot open flight file for writing: " + path);
  write_json(os);
  if (!os) throw IoError("flight file write failure: " + path);
}

std::string FlightRecorder::dump() const {
  const std::string dir = dump_dir();
  const std::string path =
      dir.empty() ? "apds_flight.json" : dir + "/flight.json";
  write_json_file(path);
  return path;
}

void FlightRecorder::set_dump_dir(const std::string& dir) {
  MutexLock lock(&dump_mu_);
  dump_dir_ = dir;
}

std::string FlightRecorder::dump_dir() const {
  MutexLock lock(&dump_mu_);
  return dump_dir_;
}

void FlightRecorder::install_sigusr1_handler() {
#ifdef SIGUSR1
  std::signal(SIGUSR1, flight_sigusr1_handler);
#endif
}

void FlightRecorder::request_dump() {
  g_dump_requested.store(true, std::memory_order_relaxed);
}

void FlightRecorder::clear() {
  for (std::size_t i = 0; i < capacity_; ++i) {
    slots_[i].seq.store(0, std::memory_order_relaxed);
    slots_[i].request_id.store(0, std::memory_order_relaxed);
  }
  head_.store(0, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// RequestScope

namespace {
thread_local RequestScope* tl_current_scope = nullptr;
}  // namespace

RequestScope* RequestScope::current() { return tl_current_scope; }

RequestScope::ContextBegin::ContextBegin() : saved(current_request_context()) {
  RequestContext ctx;
  ctx.request_id = next_request_id();
  ctx.span_id = 0;  // the request's root span has no parent
  set_current_request_context(ctx);
}

RequestScope::ContextBegin::~ContextBegin() {
  set_current_request_context(saved);
}

RequestScope::RequestScope() : begin_(), span_("request", "request") {
  record_.request_id = current_request_context().request_id;
  record_.start_us = TraceCollector::instance().now_us();
  const AllocCounters allocs = thread_alloc_counters();
  allocs_before_ = allocs.allocs;
  alloc_bytes_before_ = allocs.bytes;
  prev_ = tl_current_scope;
  tl_current_scope = this;
}

RequestScope::~RequestScope() {
  tl_current_scope = prev_;
  record_.dur_ms =
      (TraceCollector::instance().now_us() - record_.start_us) * 1e-3;
  // Heap activity of the request's own thread (pool workers allocate on
  // their own TLS blocks — the per-request count is the submitting
  // thread's share, matching the layer-timing attribution above).
  const AllocCounters allocs_now = thread_alloc_counters();
  record_.allocs = allocs_now.allocs - allocs_before_;
  record_.alloc_bytes = allocs_now.bytes - alloc_bytes_before_;
  MetricsRegistry::instance().counter("request.count").increment();
  // Attributed observation: the bucket this latency lands in retains the
  // request id as its exemplar.
  MetricsRegistry::instance()
      .histogram("request.latency_ms")
      .observe(record_.dur_ms, record_.request_id);
  FlightRecorder::instance().record(record_);
}

void RequestScope::add_layer_ms(double ms) {
  const std::uint32_t n = record_.n_layers++;
  if (n < kFlightMaxLayers) record_.layer_ms[n] = static_cast<float>(ms);
}

void RequestScope::set_input_stats(double mean, double absmax) {
  record_.input_mean = mean;
  record_.input_absmax = absmax;
}

void RequestScope::set_input_stats(std::span<const double> x) {
  double sum = 0.0, absmax = 0.0;
  for (double v : x) {
    sum += v;
    const double a = v < 0.0 ? -v : v;
    if (a > absmax) absmax = a;
  }
  set_input_stats(x.empty() ? 0.0 : sum / static_cast<double>(x.size()),
                  absmax);
}

void RequestScope::set_prediction(double mean, double variance) {
  record_.pred_mean = mean;
  record_.pred_var = variance;
}

}  // namespace apds::obs
