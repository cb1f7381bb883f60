// Shared main() body for the Figure 2–5 (inference time + energy) benches.
//
// Besides the shared --obs-dir/--log-level/--threads flags, accepts
// `--json <path>`: write the per-config SystemRow table (config, flops,
// modelled Edison time/energy, measured host time) as JSON so the perf
// trajectory is machine-readable across PRs.
#pragma once

#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/error.h"
#include "platform/thread_pool.h"

namespace apds::bench {

/// Parse and strip `--json <path>` from argv; returns the path ("" if
/// absent). Throws InvalidArgument when the value is missing.
inline std::string take_json_flag(int& argc, char** argv) {
  std::string path;
  std::vector<char*> kept;
  kept.reserve(static_cast<std::size_t>(argc));
  for (int i = 0; i < argc; ++i) {
    if (std::string(argv[i]) == "--json") {
      if (i + 1 >= argc) throw InvalidArgument("--json: missing path");
      path = argv[++i];
    } else {
      kept.push_back(argv[i]);
    }
  }
  argc = static_cast<int>(kept.size());
  for (std::size_t k = 0; k < kept.size(); ++k) argv[k] = kept[k];
  return path;
}

inline void write_system_json(const std::string& path, TaskId task,
                              const std::vector<SystemRow>& rows) {
  std::ofstream os(path);
  if (!os) throw IoError("cannot write " + path);
  os << "{\"bench\":\"system_perf\",\"task\":\"" << task_name(task)
     << "\",\"threads\":" << global_threads() << ",\"rows\":[";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const SystemRow& r = rows[i];
    if (i) os << ",";
    os << "{\"config\":\"" << r.config << "\",\"flops\":" << r.flops
       << ",\"edison_ms\":" << r.edison_ms << ",\"edison_mj\":" << r.edison_mj
       << ",\"host_ms\":" << r.host_ms << "}";
  }
  os << "]}\n";
  APDS_CHECK_MSG(os.good(), "short write to " << path);
  std::cout << "system timings written to " << path << "\n";
}

inline int run_system_bench(TaskId task, int argc, char** argv) {
  try {
    obs::ObsSession session(argc, argv);
    const std::string json_path = take_json_flag(argc, argv);
    ModelZoo zoo = make_zoo();
    ExperimentOptions opt;
    const auto rows = run_system_perf(zoo, task, opt);
    print_system_perf(std::cout, task, rows);
    if (!json_path.empty()) write_system_json(json_path, task, rows);

    // The Section IV-E headline: savings of ApDeepSense vs MCDrop-50.
    for (Activation act : {Activation::kRelu, Activation::kTanh}) {
      const Savings s = apdeepsense_savings(zoo, task, act, opt);
      std::cout << "ApDeepSense vs MCDrop-50 ("
                << (act == Activation::kRelu ? "ReLU" : "Tanh")
                << "): time saved " << format_double(s.time_fraction * 100, 1)
                << "%, energy saved "
                << format_double(s.energy_fraction * 100, 1) << "%\n";
    }
    std::cout << "(paper reports ~94.1%/83.6% time and ~94.2%/85.7% energy "
                 "savings for ReLU/Tanh averaged over tasks)\n";
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "bench failed: " << e.what() << "\n";
    return 1;
  }
}

}  // namespace apds::bench
