// Opt-in per-thread sampling profiler over POSIX timers: each registered
// thread gets its own timer on its CPU-time clock (pthread_getcpuclockid),
// delivering SIGPROF to exactly that thread (SIGEV_THREAD_ID), and the
// handler captures the interrupted call stack with backtrace(3) into that
// thread's fill-once sample buffer. CPU time, not wall time: an idle pool
// worker blocked in its condition wait takes no samples, so the self-time
// table shows work, not waiting. Linux checks CPU-time timers at its
// scheduler tick, so a busy thread takes min(1/interval, CONFIG_HZ)
// samples per second of its CPU time (250 at HZ=250).
//
// Async-signal-safety contract of the handler (enforced by review and the
// perf-syscall lint rule confining handler installation to this file):
//   * no allocation, no locking, no buffered IO — the handler touches only
//     the pre-allocated per-thread buffer and two atomics;
//   * backtrace(3)'s lazy libgcc initialization (a dlopen, which mallocs)
//     is triggered once from normal context in start() before any timer is
//     armed, so the in-handler calls never allocate;
//   * errno is saved and restored around the capture.
//
// The sample buffer is fill-once, not a wrap-around ring: slots are
// immutable once published (a release store of the count publishes each
// slot; readers acquire-load the count and only touch slots below it), so
// concurrent report() while sampling is still running is race-free — this
// is what keeps the profiler TSan-clean. When a thread's buffer fills,
// further samples are dropped and counted (reported as `dropped`).
//
// Thread-pool workers register/unregister through the platform worker
// hooks ObsSession installs; short-lived threads that exit mid-profile
// disarm their timer but leave their samples behind for the report.
//
// Symbolization happens entirely offline (backtrace_symbols + demangling
// in report()); the output is a collapsed-stack ("folded") flamegraph
// file — one `frame;frame;...;leaf count` line per unique stack, directly
// consumable by flamegraph.pl / speedscope — plus a self-time table.
// Wired to the `--obs-dir <dir>` ObsSession flag. Non-Linux builds
// compile an inert stub with the same API.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace apds::obs {

class SamplingProfiler {
 public:
  /// Deepest stack kept per sample; deeper stacks keep the leaf-most
  /// frames (the root side is truncated).
  static constexpr std::size_t kMaxFrames = 32;
  /// Fill-once capacity per thread (~1 MiB of frames; at the default 1 ms
  /// interval this is at least ~4 s of CPU time per thread, drops counted
  /// after).
  static constexpr std::size_t kMaxSamplesPerThread = 4096;

  static SamplingProfiler& instance();

  /// Install the SIGPROF handler, register the calling thread and arm one
  /// timer per registered thread. False (with a log line) when per-thread
  /// timers are unavailable (stub build). Idempotent while running.
  bool start(std::uint64_t interval_us = 1000);

  /// Disarm every timer. Samples remain for report()/write_folded().
  void stop();

  bool running() const;
  std::uint64_t interval_us() const;

  /// Register the calling thread for sampling (pool worker hooks call
  /// this); arms its timer immediately when the profiler is running.
  /// No-op if the thread is already registered.
  static void register_current_thread();
  /// Disarm and forget the calling thread's timer (its samples stay).
  static void unregister_current_thread();

  /// Total published samples / dropped samples across all threads.
  std::uint64_t sample_count() const;
  std::uint64_t dropped_count() const;

  struct SelfTimeEntry {
    std::string symbol;
    std::uint64_t samples = 0;
    double fraction = 0.0;  ///< samples / total
  };

  struct Report {
    std::uint64_t samples = 0;
    std::uint64_t dropped = 0;
    std::uint64_t interval_us = 0;
    std::size_t threads = 0;  ///< threads that contributed samples
    /// Self-time (leaf-frame) table, descending by samples.
    std::vector<SelfTimeEntry> self_time;
    /// Collapsed stacks: "root;...;leaf" -> sample count, descending.
    std::vector<std::pair<std::string, std::uint64_t>> folded;
  };

  /// Symbolize and aggregate all samples (offline; allocates freely).
  Report report() const;

  /// Write the collapsed-stack file (flamegraph.pl input).
  void write_folded(std::ostream& os) const;

  /// Drop all samples and per-thread buffers of exited threads (tests).
  /// Must not be called while running.
  void reset();

 private:
  SamplingProfiler() = default;
};

/// The full `profile.json` artifact: sampling report, counter
/// availability, and the per-kernel-backend counter tables, as one JSON
/// document (the input `apds_report` reads).
void write_profile_json(std::ostream& os);

/// Write `json_path` (the JSON above) and `folded_path` (the raw
/// collapsed-stack file). Throws IoError on failure.
void write_profile_files(const std::string& json_path,
                         const std::string& folded_path);

}  // namespace apds::obs
