// Layer probes of a traced run: single layers and single library calls,
// each timed from outside through the module's public functions.
#pragma once

#include <string>
#include <vector>

#include "harness.h"
#include "workloads.h"

namespace e2e {

/// One timed probe with its roofline columns. FLOPs come from
/// platform/cost_model; bytes are computed from tensor sizes (weights and
/// input/output moments at the kernel's width), not measured.
struct ProbeRow {
  std::string name;
  double ms = 0.0;
  double flops = 0.0;
  double bytes = 0.0;
};

struct ProbeResult {
  std::vector<Metric> metrics;
  std::vector<ProbeRow> rows;
};

/// Run every probe over the fixture's BPEst and HHAR networks, conv net
/// and RNN cell. `quick` shortens each timing loop (--smoke).
ProbeResult run_probes(Fixture& fx, bool quick);

}  // namespace e2e
