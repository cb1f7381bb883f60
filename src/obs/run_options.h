// Shared command-line runtime flags for benches and examples:
//
//   --trace <file>      enable span tracing; write Chrome-trace JSON and
//                       print the aggregate p50/p95 table on exit
//   --metrics <file>    write the MetricsRegistry JSON on exit
//   --health <file>     write the HealthMonitor snapshot JSON on exit
//                       (calibration coverage/NLL, drift z-scores,
//                       alerts)
//   --flight <file>     write the flight-recorder ring (last N completed
//                       requests) as JSON on exit; also enables the
//                       alert-triggered dump to <file>.alert
//   --profile <file>    enable the sampling profiler and hardware counter
//                       regions for the whole run; on exit write the
//                       profile JSON (self-time table, collapsed stacks,
//                       per-kernel-backend counter tables) to <file>, the
//                       raw collapsed stacks to <file>.folded, and print
//                       the top self-time entries (see
//                       tools/apds_profile_report)
//   --log-level <lvl>   debug | info | warn | error | off
//   --threads <n>       width of the global thread pool (1 = serial).
//                       Precedence: --threads > APDS_THREADS env >
//                       hardware concurrency.
//   --precision <p>     inference scalar width: f64 (reference, default),
//                       f32 (packed-weight SIMD fast path) or i8
//                       (quantized hidden layers, f32 moment head).
//                       Precedence: --precision > APDS_PRECISION env > f64.
//   --kernel <b>        kernel ISA tier: scalar | avx2 | avx512.
//                       Precedence: --kernel > APDS_KERNEL env > CPUID
//                       probe (best supported). Unsupported values clamp
//                       to the best the CPU executes, with a warning.
//
// Every bench/example parses these through parse_obs_flags() + ObsSession
// instead of hand-rolling argv handling, so any binary can emit a trace
// or change its parallelism without code changes.
#pragma once

#include <cstddef>
#include <optional>
#include <string>

#include "common/precision.h"
#include "tensor/kernels/kernel_dispatch.h"

namespace apds::obs {

struct ObsOptions {
  std::string trace_path;    ///< empty = tracing stays disabled
  std::string metrics_path;  ///< empty = no metrics export
  std::string health_path;   ///< empty = no health-snapshot JSON export
  std::string flight_path;   ///< empty = no flight-recorder exit dump
  std::string profile_path;  ///< empty = profiling stays off
  std::size_t threads = 0;   ///< 0 = APDS_THREADS env / hardware default
  /// --precision; unset = APDS_PRECISION env / f64 default.
  std::optional<Precision> precision;
  /// --kernel; unset = APDS_KERNEL env / CPUID probe.
  std::optional<KernelBackend> kernel;
  bool tracing() const { return !trace_path.empty(); }
  bool profiling() const { return !profile_path.empty(); }
  bool health_export() const { return !health_path.empty(); }
};

/// Parse and strip the observability flags from argv (argc is compacted;
/// unrecognized arguments are left in place for the caller's own parsing).
/// Applies --log-level immediately. Throws InvalidArgument on a malformed
/// flag (missing value, unknown level).
ObsOptions parse_obs_flags(int& argc, char** argv);

/// One-line usage blurb for the shared flags, for --help texts.
const char* obs_flags_help();

/// True when parse_obs_flags left nothing but the program name in argv.
/// Otherwise prints the first leftover argument and the usage (with
/// obs_flags_help()) to stderr and returns false; binaries that take no
/// arguments of their own then exit 2, so a mistyped flag fails loudly.
bool only_obs_flags(int argc, char** argv);

/// RAII wiring: enables tracing on construction when options ask for it,
/// configures the global thread pool (--threads), inference precision
/// (--precision) and kernel ISA tier (--kernel), publishes the
/// `pool.threads`, `run.precision_f32` and `kernel.dispatch_backend`
/// gauges, points the flight recorder at --flight's path and installs its
/// SIGUSR1 dump handler; on destruction writes the Chrome-trace JSON,
/// prints the aggregate span table to stdout, and writes the metrics,
/// health and flight-recorder files.
/// Export errors are logged, never thrown (safe in main()'s unwind path).
class ObsSession {
 public:
  explicit ObsSession(ObsOptions options);
  /// Convenience: parse_obs_flags + construct.
  ObsSession(int& argc, char** argv);
  ~ObsSession();

  ObsSession(const ObsSession&) = delete;
  ObsSession& operator=(const ObsSession&) = delete;

  const ObsOptions& options() const { return options_; }

 private:
  ObsOptions options_;
};

}  // namespace apds::obs
