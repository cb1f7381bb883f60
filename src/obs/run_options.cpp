#include "obs/run_options.h"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <iomanip>
#include <iostream>
#include <system_error>
#include <vector>

#include "common/error.h"
#include "common/logging.h"
#include "common/parse_num.h"
#include "obs/flight_recorder.h"
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
    if (arg == "--obs-dir") {
      options.obs_dir = take_value("--obs-dir");
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
  return "  --obs-dir <dir>     trace + profile the run; write trace.json,\n"
         "                      metrics.json, flight.json, profile.json\n"
         "                      and profile.folded into <dir>\n"
         "                      (read them with tools/apds_report <dir>)\n"
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
  if (!options_.obs_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(options_.obs_dir, ec);
    if (!std::filesystem::is_directory(options_.obs_dir))
      throw InvalidArgument("--obs-dir: '" + options_.obs_dir +
                            "' is not a directory" +
                            (ec ? " (" + ec.message() + ")" : ""));
    TraceCollector::instance().set_enabled(true);
    // Hooks must be installed before anything below forces the global
    // pool's construction (the pool.threads gauge does), so workers
    // register with the profiler as they start.
    set_worker_thread_hooks(&SamplingProfiler::register_current_thread,
                            &SamplingProfiler::unregister_current_thread);
    SamplingProfiler::instance().start();
    set_perf_profiling(true);  // arm the kernel-dispatch counter regions
    FlightRecorder::instance().set_dump_dir(options_.obs_dir);
  }
  if (options_.threads > 0) set_global_threads(options_.threads);
  if (options_.precision) set_global_precision(*options_.precision);
  if (options_.kernel) set_global_kernel_backend(*options_.kernel);
  MetricsRegistry::instance().gauge("pool.threads").set(
      static_cast<double>(global_threads()));
  MetricsRegistry::instance().gauge("run.precision_f32").set(
      global_precision() == Precision::kF32 ? 1.0 : 0.0);
  // Which kernel tier serves traffic (0 = scalar, 1 = avx2, 2 = avx512 —
  // the KernelBackend enum values), visible in metrics.json.
  MetricsRegistry::instance().gauge("kernel.dispatch_backend").set(
      static_cast<double>(static_cast<int>(global_kernel_backend())));
  // SIGUSR1 dumps work even without --obs-dir (to apds_flight.json).
  FlightRecorder::install_sigusr1_handler();
}

ObsSession::ObsSession(int& argc, char** argv)
    : ObsSession(parse_obs_flags(argc, argv)) {}

ObsSession::~ObsSession() {
  if (options_.obs_dir.empty()) return;
  try {
    const std::filesystem::path dir(options_.obs_dir);
    auto in_dir = [&](const char* name) { return (dir / name).string(); };
    SamplingProfiler& profiler = SamplingProfiler::instance();
    profiler.stop();
    set_perf_profiling(false);
    // The per-backend counter gauges ride metrics.json, so publish before
    // that writer runs.
    KernelPerfTable::instance().publish_metrics();
    write_profile_files(in_dir("profile.json"), in_dir("profile.folded"));
    const auto rep = profiler.report();
    std::cout << "profile: " << rep.samples << " samples (" << rep.dropped
              << " dropped) across " << rep.threads
              << " thread(s), hardware counters "
              << perf_availability_name(perf_availability()) << "\n";
    const std::size_t top = std::min<std::size_t>(10, rep.self_time.size());
    for (std::size_t i = 0; i < top; ++i) {
      const auto& entry = rep.self_time[i];
      std::cout << "  " << entry.samples << " (" << std::fixed
                << std::setprecision(1) << entry.fraction * 100.0 << "%) "
                << entry.symbol << "\n";
      std::cout.unsetf(std::ios::fixed);
    }

    TraceCollector& collector = TraceCollector::instance();
    collector.set_enabled(false);
    collector.write_chrome_trace_file(in_dir("trace.json"));
    collector.print_aggregate(std::cout);

    MetricsRegistry::instance().write_json_file(in_dir("metrics.json"));
    FlightRecorder::instance().dump();  // <dir>/flight.json
    std::cout << "observability artifacts written to " << dir.string()
              << " (read them with tools/apds_report " << dir.string()
              << "; trace.json loads in ui.perfetto.dev)\n";
  } catch (const std::exception& e) {
    APDS_ERROR("observability export failed: " << e.what());
  }
}

}  // namespace apds::obs
