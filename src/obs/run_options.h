// Shared command-line runtime flags for benches and examples:
//
//   --obs-dir <dir>     trace and profile the whole run (spans, sampling
//                       profiler, hardware counter regions); on exit write
//                       into <dir> (created when missing) trace.json
//                       (Chrome trace; the p50/p95 span table is printed
//                       too), metrics.json, flight.json (last N
//                       requests), profile.json and profile.folded
//                       (flamegraph.pl input).
//                       `tools/apds_report <dir>` reads them back.
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
  std::string obs_dir;      ///< empty = no tracing, profiling or exports
  std::size_t threads = 0;  ///< 0 = APDS_THREADS env / hardware default
  /// --precision; unset = APDS_PRECISION env / f64 default.
  std::optional<Precision> precision;
  /// --kernel; unset = APDS_KERNEL env / CPUID probe.
  std::optional<KernelBackend> kernel;
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

/// RAII wiring: with --obs-dir, creates the directory (InvalidArgument
/// when the path exists but is not a directory), enables tracing and
/// profiling and points the flight recorder's dumps at it; always
/// configures the global thread pool (--threads), inference precision
/// (--precision) and kernel ISA tier (--kernel), publishes the
/// `pool.threads`, `run.precision_f32` and `kernel.dispatch_backend`
/// gauges and installs the flight recorder's SIGUSR1 dump handler. On
/// destruction writes the --obs-dir artifacts and prints the aggregate
/// span table and the top self-time entries to stdout.
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
