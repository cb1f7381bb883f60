// Shared helpers for the bench binaries that regenerate the paper's tables
// and figures.
#pragma once

#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "common/string_util.h"
#include "eval/experiment.h"
#include "eval/model_zoo.h"
#include "eval/table_printer.h"
#include "obs/run_options.h"

namespace apds::bench {

// Every bench main routes argc/argv through obs::ObsSession (constructed
// first thing in main), which parses and strips the shared observability
// flags — see obs/run_options.h. Run any bench with `--obs-dir <dir>` to
// get a Chrome-trace of the full run (<dir>/trace.json) plus an aggregate
// p50/p95 span table, and the other artifacts apds_report reads.

/// Zoo with the paper's 512-wide architecture; model cache defaults to
/// ./models (override with APDS_MODEL_DIR).
inline ModelZoo make_zoo() {
  ZooConfig cfg;
  if (const char* dir = std::getenv("APDS_MODEL_DIR")) cfg.cache_dir = dir;
  return ModelZoo(cfg);
}

/// One reference row from the paper, for paper-vs-ours reporting.
struct PaperRow {
  const char* config;
  double primary;  ///< MAE or ACC(%)
  double nll;
};

/// Print our rows side by side with the paper's reported numbers. Configs
/// are joined by name; the comparison is about *shape* (ordering, ratios),
/// not absolute values — our substrate is synthetic data on a simulated
/// Edison (see DESIGN.md).
inline void print_with_paper(std::ostream& os, TaskId task,
                             const std::vector<ModelPerfRow>& ours,
                             const std::vector<PaperRow>& paper,
                             TaskKind kind) {
  const char* primary = kind == TaskKind::kRegression ? "MAE" : "ACC (%)";
  os << "Task " << task_name(task)
     << " — model estimation performance (ours vs paper)\n";
  TablePrinter table({"config", std::string(primary) + " (ours)",
                      "NLL (ours)", std::string(primary) + " (paper)",
                      "NLL (paper)"});
  for (const auto& r : ours) {
    std::string p_primary = "-";
    std::string p_nll = "-";
    for (const auto& p : paper) {
      if (r.config == p.config) {
        p_primary = format_double(p.primary, 2);
        p_nll = format_double(p.nll, 2);
        break;
      }
    }
    table.add_row({r.config, format_double(r.primary, 2),
                   format_double(r.nll, 2), p_primary, p_nll});
  }
  table.print(os);
}

}  // namespace apds::bench
