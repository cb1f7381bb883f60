// apds_profile_report, both halves:
//  * hermetic — hand-written profile/flight fixtures drive the table
//    rendering, the counter-denied fallback (dashes, never fake numbers),
//    the folded re-emission and the exit-code contract;
//  * end to end — micro_kernels runs under --profile twice, once at the
//    machine's native kernel tier and once pinned to APDS_KERNEL=scalar,
//    and the two artifacts must attribute their counter regions to
//    DISTINCT backends (the per-tier attribution the profiling layer
//    exists for). Counter-denied runners still pass: attribution rides
//    the region counts, which are recorded without PMU access.
// PROFILE_REPORT_BIN / MICRO_KERNELS_BIN are injected by
// tests/CMakeLists.txt.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "tensor/kernels/kernel_dispatch.h"

namespace apds {
namespace {

int run_cmd(const std::string& cmd) {
  const int status = std::system(cmd.c_str());
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

int run_report(const std::string& args, const std::string& out_path) {
#ifdef PROFILE_REPORT_BIN
  return run_cmd(std::string(PROFILE_REPORT_BIN) + " " + args + " > " +
                 out_path + " 2>&1");
#else
  (void)args;
  (void)out_path;
  return -1;
#endif
}

std::string scratch(const std::string& name) {
  return std::string("profile_report_") +
         ::testing::UnitTest::GetInstance()->current_test_info()->name() +
         "_" + name;
}

std::string read_file(const std::string& path) {
  std::ifstream is(path);
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream os(path);
  os << text;
  ASSERT_TRUE(os.good());
}

/// A profile as write_profile_json emits it: two symbols, two stacks,
/// and both backend-table shapes — counters valid (avx2) and counter-
/// denied (scalar, regions only).
const char* kProfile = R"({
"interval_us": 1000,
"samples": 40,
"dropped": 2,
"threads": 3,
"kernel_backend": "avx2",
"perf_availability": "available",
"perf_reason": "",
"self_time": [
{"symbol": "gemm_f32_tile", "samples": 30, "fraction": 0.75},
{"symbol": "moment_act", "samples": 10, "fraction": 0.25}
],
"folded": [
"main;propagate;gemm_f32_tile 30",
"main;propagate;moment_act 10"
],
"perf_backends": [
{"backend": "avx2", "regions": 12, "counters_valid": true,
 "cycles": 1000000, "instructions": 2000000, "cache_references": 1000,
 "cache_misses": 100, "branch_misses": 5, "ipc": 2.0,
 "cache_miss_rate": 0.1},
{"backend": "scalar", "regions": 4, "counters_valid": false,
 "cycles": 0, "instructions": 0, "cache_references": 0,
 "cache_misses": 0, "branch_misses": 0}
]
}
)";

const char* kFlight = R"({"capacity":16,"completed":2,"alerts_raised":0,
"requests":[
{"request_id":1,"start_us":10,"dur_ms":0.5,"layers_ms":[0.2],"n_layers":1,
 "input_mean":0,"input_absmax":1,"pred_mean":0,"pred_var":1,"alerts":0,
 "allocs":24,"alloc_bytes":4096},
{"request_id":2,"start_us":20,"dur_ms":0.3,"layers_ms":[0.1],"n_layers":1,
 "input_mean":0,"input_absmax":1,"pred_mean":0,"pred_var":1,"alerts":0,
 "allocs":8,"alloc_bytes":1024}
]}
)";

class ProfileReportTest : public ::testing::Test {
 protected:
  void SetUp() override {
#ifndef PROFILE_REPORT_BIN
    GTEST_SKIP() << "PROFILE_REPORT_BIN not configured";
#endif
    profile_ = scratch("profile.json");
    write_file(profile_, kProfile);
  }
  std::string profile_;
};

TEST_F(ProfileReportTest, RendersSelfTimeAndBothBackendTableShapes) {
  ASSERT_EQ(run_report(profile_, scratch("out.txt")), 0);
  const std::string out = read_file(scratch("out.txt"));
  EXPECT_NE(out.find("40 samples (2 dropped) on 3 thread(s)"),
            std::string::npos)
      << out;
  // Self-time, descending.
  const std::size_t hot = out.find("gemm_f32_tile");
  const std::size_t cold = out.find("moment_act");
  ASSERT_NE(hot, std::string::npos) << out;
  ASSERT_NE(cold, std::string::npos) << out;
  EXPECT_LT(hot, cold);
  EXPECT_NE(out.find("75.0%"), std::string::npos) << out;
  // Valid backend row has numbers; denied row keeps its region count but
  // renders dashes instead of invented counter values.
  EXPECT_NE(out.find("avx2"), std::string::npos) << out;
  EXPECT_NE(out.find("2.00"), std::string::npos) << out;       // ipc
  EXPECT_NE(out.find("10.00%"), std::string::npos) << out;     // miss rate
  const std::size_t scalar_row = out.find("scalar");
  ASSERT_NE(scalar_row, std::string::npos) << out;
  EXPECT_NE(out.find("-", scalar_row), std::string::npos) << out;
}

TEST_F(ProfileReportTest, FlightJoinSurfacesAllocationAccounting) {
  const std::string flight = scratch("flight.json");
  write_file(flight, kFlight);
  ASSERT_EQ(run_report(profile_ + " --flight " + flight, scratch("o.txt")),
            0);
  const std::string out = read_file(scratch("o.txt"));
  EXPECT_NE(out.find("2 request(s), mean 16.0 allocs / 2560 bytes"),
            std::string::npos)
      << out;
  // Request 1 (24 allocs) sorts above request 2 (8 allocs).
  const std::size_t top = out.find("top");
  ASSERT_NE(top, std::string::npos);
  EXPECT_LT(out.find("24", top), out.find("\n  2 ", top)) << out;
}

TEST_F(ProfileReportTest, FoldedReEmissionMatchesTheEmbeddedStacks) {
  const std::string folded = scratch("out.folded");
  ASSERT_EQ(run_report(profile_ + " --folded " + folded, scratch("o.txt")),
            0);
  EXPECT_EQ(read_file(folded),
            "main;propagate;gemm_f32_tile 30\n"
            "main;propagate;moment_act 10\n");
}

TEST_F(ProfileReportTest, UsageAndParseErrorsExitTwo) {
  EXPECT_EQ(run_report("", scratch("usage.txt")), 2);
  EXPECT_EQ(run_report("no_such_profile.json", scratch("nofile.txt")), 2);
  EXPECT_EQ(run_report(profile_ + " --top 0", scratch("top0.txt")), 2);
  const std::string bad = scratch("bad.json");
  write_file(bad, "{\"self_time\":[");
  EXPECT_EQ(run_report(bad, scratch("bad.txt")), 2);
}

TEST(ProfileReportE2E, MicroKernelsAttributesDistinctKernelBackends) {
#if !defined(MICRO_KERNELS_BIN) || !defined(PROFILE_REPORT_BIN)
  GTEST_SKIP() << "bench/report binaries not configured";
#else
  // One fast propagate benchmark is enough to cross the instrumented
  // kernel paths; the suite rows (--json) are not needed here.
  const std::string filter = " '--benchmark_filter=ApDeepSensePassF32/1$'";
  const std::string native_profile = "profile_e2e_native.json";
  const std::string scalar_profile = "profile_e2e_scalar.json";
  // The native run must not inherit an APDS_KERNEL override from the
  // suite's own environment (CI reruns the suite with APDS_KERNEL=scalar).
  ASSERT_EQ(run_cmd(std::string("env -u APDS_KERNEL ") + MICRO_KERNELS_BIN +
                    " --profile " + native_profile + filter +
                    " > profile_e2e_native.out 2>&1"),
            0)
      << read_file("profile_e2e_native.out");
  ASSERT_EQ(run_cmd(std::string("APDS_KERNEL=scalar ") + MICRO_KERNELS_BIN +
                    " --profile " + scalar_profile + filter +
                    " > profile_e2e_scalar.out 2>&1"),
            0)
      << read_file("profile_e2e_scalar.out");

  const std::string native_json = read_file(native_profile);
  const std::string scalar_json = read_file(scalar_profile);
  ASSERT_FALSE(native_json.empty());
  ASSERT_FALSE(scalar_json.empty());

  // The pinned run attributes its regions to the scalar tier.
  EXPECT_NE(scalar_json.find("\"kernel_backend\": \"scalar\""),
            std::string::npos)
      << scalar_json;
  EXPECT_NE(scalar_json.find("\"backend\": \"scalar\""), std::string::npos)
      << scalar_json;

  // The native run attributes to the widest tier this machine supports;
  // when that IS scalar (no AVX) the two runs legitimately coincide.
  const char* best = kernel_backend_name(best_supported_backend());
  EXPECT_NE(native_json.find(std::string("\"kernel_backend\": \"") + best +
                             "\""),
            std::string::npos)
      << native_json;
  if (best_supported_backend() != KernelBackend::kScalar) {
    EXPECT_NE(native_json.find(std::string("\"backend\": \"") + best + "\""),
              std::string::npos)
        << native_json;
    EXPECT_EQ(native_json.find("\"backend\": \"scalar\""), std::string::npos)
        << "native run recorded scalar-tier regions:\n" << native_json;
  }

  // Both artifacts sampled something and the report tool digests them,
  // keying its backend table by the dispatched tier.
  ASSERT_EQ(run_cmd(std::string(PROFILE_REPORT_BIN) + " " + scalar_profile +
                    " > profile_e2e_report.out 2>&1"),
            0)
      << read_file("profile_e2e_report.out");
  const std::string report = read_file("profile_e2e_report.out");
  EXPECT_NE(report.find("kernel backend: scalar"), std::string::npos)
      << report;
  EXPECT_NE(report.find("scalar"), std::string::npos) << report;
  // The ObsSession also wrote the companion folded file.
  EXPECT_FALSE(read_file(scalar_profile + ".folded").empty());
#endif
}

}  // namespace
}  // namespace apds
