// Hardware performance-counter groups over Linux perf_event_open(2),
// dependency-free: cycles, instructions, cache references/misses and
// branch misses read as ONE counter group (a single read(2) returns every
// member plus time-enabled/time-running, so the values are mutually
// consistent and multiplexing-aware scaling is exact per group, not per
// counter).
//
// Availability is probed once per process and degrades gracefully, in
// order of preference:
//   * full five-event group            -> kAvailable
//   * cycles+instructions only (PMUs   -> kAvailable (cache/branch report 0
//     with few programmable counters)     and the derived rates are NaN)
//   * APDS_PERF=off|0 in the env       -> kDisabledByEnv — the test hook
//                                         simulating a perf_event_paranoid
//                                         denial on any machine
//   * EACCES/EPERM from the kernel     -> kDenied (perf_event_paranoid)
//   * ENOENT/ENOSYS/ENODEV/non-Linux   -> kUnsupported (no PMU: containers,
//                                         VMs, non-Linux builds — these
//                                         compile the stub, same API)
// Every caller must behave identically across all four states: regions
// become no-ops, read() returns valid=false, and the one-line reason is
// available for logs. Nothing in this header ever throws on degradation.
//
// PerfCounterRegion is the hot-path RAII form. Default-constructed it is
// gated on set_perf_profiling(): one relaxed atomic load when profiling is
// off (bench-gated by the `perf_region_overhead` micro_kernels row), and
// when on it accumulates the region's deltas into the process-wide
// KernelPerfTable keyed by the dispatched kernel backend — the
// cycles-level attribution behind `apds_report`'s per-backend
// IPC/miss tables. The explicit (PerfCounterValues* out) form bypasses the
// gate for deliberate measurements (bench rows).
//
// Counters are per calling thread (pid=0, cpu=-1, no inherit — inherited
// group reads are not supported by the kernel), so a region around a
// parallel kernel attributes the calling thread's share only; run the
// bench suite at --threads 1 for whole-kernel attribution.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

namespace apds::obs {

/// One consistent sample of the counter group. Raw counts are unscaled;
/// the derived rates apply the multiplexing scale themselves (all members
/// of one group run — and stop — together, so ratios are scale-free).
struct PerfCounterValues {
  std::uint64_t cycles = 0;
  std::uint64_t instructions = 0;
  std::uint64_t cache_references = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t branch_misses = 0;
  std::uint64_t time_enabled_ns = 0;
  std::uint64_t time_running_ns = 0;
  /// False when the group was unavailable (every count is then 0).
  bool valid = false;

  /// enabled/running ratio (>= 1 when the PMU multiplexed the group;
  /// 1 when it ran the whole time; 0 when it never ran).
  double multiplex_scale() const;
  /// Instructions per cycle. NaN when cycles is 0 or the sample is invalid.
  double ipc() const;
  /// cache_misses / cache_references. NaN when references is 0 or invalid.
  double cache_miss_rate() const;
  /// branch_misses / instructions. NaN when instructions is 0 or invalid.
  double branch_miss_rate() const;

  PerfCounterValues& operator+=(const PerfCounterValues& other);
};

enum class PerfAvailability {
  kAvailable = 0,
  kDisabledByEnv = 1,  ///< APDS_PERF=off — simulated paranoid denial
  kDenied = 2,         ///< EACCES/EPERM (perf_event_paranoid)
  kUnsupported = 3,    ///< no PMU / no syscall / non-Linux stub build
};

/// "available" / "disabled-by-env" / "denied" / "unsupported".
const char* perf_availability_name(PerfAvailability a);

/// Process-wide availability, probed once (thread-safe, never throws).
PerfAvailability perf_availability();

/// Human-readable reason when unavailable ("" when available). Stable
/// storage; safe to keep the reference.
const std::string& perf_unavailable_reason();

/// One opened counter group on the calling thread. Open at construction;
/// unavailable groups are inert (start/stop/read all safe no-ops).
class PerfCounterGroup {
 public:
  PerfCounterGroup();
  ~PerfCounterGroup();

  PerfCounterGroup(const PerfCounterGroup&) = delete;
  PerfCounterGroup& operator=(const PerfCounterGroup&) = delete;

  bool available() const { return leader_fd_ >= 0; }

  /// Zero the group and start counting.
  void start();
  /// Stop counting (values hold until the next start()).
  void stop();
  /// Read the group (valid=false when unavailable or the read failed).
  PerfCounterValues read() const;

  /// The calling thread's lazily opened group, shared by every region on
  /// this thread (perf file descriptors are per-task; regions must not
  /// open/close fds on the hot path).
  static PerfCounterGroup& thread_local_group();

 private:
  int leader_fd_ = -1;
  int member_fds_[4] = {-1, -1, -1, -1};
  std::size_t n_members_ = 0;  ///< siblings actually opened (excl. leader)
  bool full_group_ = false;    ///< cache/branch events present
};

/// Process-wide switch the default-constructed regions are gated on.
/// ObsSession turns it on for `--obs-dir` runs (or APDS_PERF=on).
void set_perf_profiling(bool on);
bool perf_profiling_enabled();

/// Accumulated region totals per kernel backend (indexed by the
/// KernelBackend enum value the dispatcher resolved when the region
/// closed). All relaxed atomics: totals are for post-hoc reporting.
class KernelPerfTable {
 public:
  static constexpr std::size_t kBackends = 3;  ///< scalar/avx2/avx512

  static KernelPerfTable& instance();

  void add(std::size_t backend, const PerfCounterValues& v);
  PerfCounterValues total(std::size_t backend) const;
  std::uint64_t regions(std::size_t backend) const;

  /// Publish per-backend gauges (`perf.<backend>.ipc`,
  /// `perf.<backend>.cache_miss_rate`, `perf.<backend>.cycles`,
  /// `perf.<backend>.regions`) into the MetricsRegistry for backends that
  /// recorded at least one region — they ride the metrics.json export.
  void publish_metrics() const;

  void reset();

 private:
  KernelPerfTable() = default;
  struct Slot;
  Slot& slot(std::size_t backend) const;
};

/// RAII counter region. The default constructor is the hot-path form:
/// inert unless perf_profiling_enabled(), and accumulates into
/// KernelPerfTable under the currently dispatched backend. The explicit
/// form measures unconditionally (when counters are available) and writes
/// the deltas to *out instead.
class PerfCounterRegion {
 public:
  PerfCounterRegion();
  explicit PerfCounterRegion(PerfCounterValues* out);
  ~PerfCounterRegion();

  PerfCounterRegion(const PerfCounterRegion&) = delete;
  PerfCounterRegion& operator=(const PerfCounterRegion&) = delete;

 private:
  void begin();
  PerfCounterGroup* group_ = nullptr;  ///< null = inert region
  PerfCounterValues* out_ = nullptr;   ///< null = accumulate into the table
};

/// Bench helper: run `fn` `iterations` times under one counter region and
/// return the TOTAL deltas (divide by `iterations` for per-call numbers).
/// valid=false when counters are unavailable — callers emit their columns
/// conditionally and log the reason once.
PerfCounterValues perf_measure(const std::function<void()>& fn,
                               std::size_t iterations);

}  // namespace apds::obs
