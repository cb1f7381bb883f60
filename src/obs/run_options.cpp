#include "obs/run_options.h"

#include <algorithm>
#include <cctype>
#include <iomanip>
#include <iostream>
#include <vector>

#include "common/error.h"
#include "common/logging.h"
#include "common/parse_num.h"
#include "obs/flight_recorder.h"
#include "obs/health.h"
#include "obs/metrics.h"
#include "obs/perf_counters.h"
#include "obs/sampling_profiler.h"
#include "obs/trace.h"
#include "platform/thread_pool.h"

namespace apds::obs {

namespace {

LogLevel parse_level(std::string name) {
  std::transform(name.begin(), name.end(), name.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  if (name == "debug") return LogLevel::kDebug;
  if (name == "info") return LogLevel::kInfo;
  if (name == "warn" || name == "warning") return LogLevel::kWarn;
  if (name == "error") return LogLevel::kError;
  if (name == "off" || name == "none") return LogLevel::kOff;
  throw InvalidArgument("--log-level: unknown level '" + name +
                        "' (want debug|info|warn|error|off)");
}

}  // namespace

ObsOptions parse_obs_flags(int& argc, char** argv) {
  ObsOptions options;
  std::vector<char*> kept;
  kept.reserve(static_cast<std::size_t>(argc));
  int i = 0;
  auto take_value = [&](const char* flag) -> std::string {
    if (i + 1 >= argc)
      throw InvalidArgument(std::string(flag) + ": missing value");
    return argv[++i];
  };
  for (; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--trace") {
      options.trace_path = take_value("--trace");
    } else if (arg == "--metrics") {
      options.metrics_path = take_value("--metrics");
    } else if (arg == "--health") {
      options.health_path = take_value("--health");
    } else if (arg == "--flight") {
      options.flight_path = take_value("--flight");
    } else if (arg == "--profile") {
      options.profile_path = take_value("--profile");
    } else if (arg == "--log-level") {
      set_log_level(parse_level(take_value("--log-level")));
    } else if (arg == "--threads") {
      const std::string value = take_value("--threads");
      const auto n = parse_unsigned(value);
      if (!n || *n == 0)
        throw InvalidArgument("--threads: want a positive integer, got '" +
                              value + "'");
      options.threads = static_cast<std::size_t>(*n);
    } else if (arg == "--precision") {
      try {
        options.precision = parse_precision(take_value("--precision"));
      } catch (const InvalidArgument& e) {
        throw InvalidArgument(std::string("--precision: ") + e.what());
      }
    } else if (arg == "--kernel") {
      try {
        options.kernel = parse_kernel_backend(take_value("--kernel"));
      } catch (const InvalidArgument& e) {
        throw InvalidArgument(std::string("--kernel: ") + e.what());
      }
    } else {
      kept.push_back(argv[i]);
    }
  }
  argc = static_cast<int>(kept.size());
  for (std::size_t k = 0; k < kept.size(); ++k) argv[k] = kept[k];
  return options;
}

const char* obs_flags_help() {
  return "  --trace <file>      write Chrome-trace JSON + aggregate table\n"
         "  --metrics <file>    write metrics (counters/gauges) JSON\n"
         "  --health <file>     write health snapshot JSON (calibration,\n"
         "                      drift, alerts)\n"
         "  --flight <file>     write flight-recorder request ring as JSON\n"
         "                      (alert dumps go to <file>.alert)\n"
         "  --profile <file>    sampling profiler + hardware counter regions;\n"
         "                      writes profile JSON to <file>, collapsed\n"
         "                      stacks to <file>.folded (flamegraph.pl input)\n"
         "  --log-level <lvl>   debug|info|warn|error|off\n"
         "  --threads <n>       thread-pool width (1 = serial; default\n"
         "                      APDS_THREADS env, then hardware)\n"
         "  --precision <p>     inference scalar width: f64 (default), f32\n"
         "                      fast path or i8 quantized (default\n"
         "                      APDS_PRECISION env)\n"
         "  --kernel <b>        kernel ISA tier: scalar|avx2|avx512\n"
         "                      (default APDS_KERNEL env, then CPUID probe;\n"
         "                      unsupported tiers clamp to the best one)";
}

bool only_obs_flags(int argc, char** argv) {
  if (argc <= 1) return true;
  std::cerr << "unknown argument '" << argv[1] << "'\nusage: " << argv[0]
            << " [flags]\n"
            << obs_flags_help() << "\n";
  return false;
}

ObsSession::ObsSession(ObsOptions options) : options_(std::move(options)) {
  if (options_.tracing()) TraceCollector::instance().set_enabled(true);
  if (options_.profiling()) {
    // Hooks must be installed before anything below forces the global
    // pool's construction (the pool.threads gauge does), so workers
    // register with the profiler as they start.
    set_worker_thread_hooks(&SamplingProfiler::register_current_thread,
                            &SamplingProfiler::unregister_current_thread);
    SamplingProfiler::instance().start();
    set_perf_profiling(true);  // arm the kernel-dispatch counter regions
  }
  if (options_.threads > 0) set_global_threads(options_.threads);
  if (options_.precision) set_global_precision(*options_.precision);
  if (options_.kernel) set_global_kernel_backend(*options_.kernel);
  MetricsRegistry::instance().gauge("pool.threads").set(
      static_cast<double>(global_threads()));
  MetricsRegistry::instance().gauge("run.precision_f32").set(
      global_precision() == Precision::kF32 ? 1.0 : 0.0);
  // Which kernel tier serves traffic (0 = scalar, 1 = avx2, 2 = avx512 —
  // the KernelBackend enum values), visible in --metrics dumps.
  MetricsRegistry::instance().gauge("kernel.dispatch_backend").set(
      static_cast<double>(static_cast<int>(global_kernel_backend())));
  if (!options_.flight_path.empty())
    FlightRecorder::instance().set_dump_path(options_.flight_path);
  // SIGUSR1 dumps work even without --flight (default apds_flight.json).
  FlightRecorder::install_sigusr1_handler();
}

ObsSession::ObsSession(int& argc, char** argv)
    : ObsSession(parse_obs_flags(argc, argv)) {}

ObsSession::~ObsSession() {
  try {
    if (options_.profiling()) {
      SamplingProfiler& profiler = SamplingProfiler::instance();
      profiler.stop();
      set_perf_profiling(false);
      // The per-backend counter gauges ride the --metrics export
      // below, so publish before those writers run.
      KernelPerfTable::instance().publish_metrics();
      write_profile_files(options_.profile_path);
      const auto rep = profiler.report();
      std::cout << "profile: " << rep.samples << " samples ("
                << rep.dropped << " dropped) across " << rep.threads
                << " thread(s), hardware counters "
                << perf_availability_name(perf_availability()) << "\n";
      const std::size_t top = std::min<std::size_t>(10, rep.self_time.size());
      for (std::size_t i = 0; i < top; ++i) {
        const auto& entry = rep.self_time[i];
        std::cout << "  " << entry.samples << " (" << std::fixed
                  << std::setprecision(1) << entry.fraction * 100.0
                  << "%) " << entry.symbol << "\n";
        std::cout.unsetf(std::ios::fixed);
      }
      std::cout << "profile written to " << options_.profile_path << " (+"
                << options_.profile_path << ".folded for flamegraph.pl)\n";
    }
    if (options_.tracing()) {
      TraceCollector& collector = TraceCollector::instance();
      collector.set_enabled(false);
      collector.write_chrome_trace_file(options_.trace_path);
      collector.print_aggregate(std::cout);
      std::cout << "trace written to " << options_.trace_path
                << " (load in chrome://tracing or ui.perfetto.dev)\n";
    }
    if (!options_.metrics_path.empty()) {
      MetricsRegistry::instance().write_json_file(options_.metrics_path);
      std::cout << "metrics written to " << options_.metrics_path << "\n";
    }
    if (options_.health_export()) {
      const HealthSnapshot snap = HealthMonitor::instance().snapshot();
      snap.write_json_file(options_.health_path);
      std::cout << "health snapshot written to " << options_.health_path
                << "\n";
      if (!snap.alerts.empty())
        std::cout << "health: " << snap.alerts.size()
                  << " alert(s) raised during this run\n";
    }
    if (!options_.flight_path.empty()) {
      FlightRecorder::instance().write_json_file(options_.flight_path);
      std::cout << "flight records written to " << options_.flight_path
                << "\n";
    }
  } catch (const std::exception& e) {
    APDS_ERROR("observability export failed: " << e.what());
  }
}

}  // namespace apds::obs
