// tools/apds_report, both halves:
//  * hermetic — hand-written trace/flight/profile files in per-test
//    --obs-dir fixture directories drive the per-request view (critical
//    path, flight join, --request and --top), the profile tables (with the
//    counter-denied fallback: dashes, never fake numbers), the allocation
//    ranking, the span totals and the exit-code contract;
//  * end to end — micro_kernels runs under --obs-dir twice, once at the
//    machine's native kernel tier and once pinned to APDS_KERNEL=scalar,
//    and the two profiles must attribute their counter regions to DISTINCT
//    backends (the per-tier attribution the profiling layer exists for).
//    Counter-denied runners still pass: attribution rides the region
//    counts, which are recorded without PMU access. One more run checks
//    that the session's profile.folded is the profile's "folded" array.
// REPORT_BIN / MICRO_KERNELS_BIN are injected by tests/CMakeLists.txt.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "json_dom.h"
#include "tensor/kernels/kernel_dispatch.h"

namespace apds {
namespace {

int run_cmd(const std::string& cmd) {
  const int status = std::system(cmd.c_str());
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
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

/// Two requests: 7 spans two threads (flow-linked), 9 a single fast span.
/// Ids/durations chosen so request 7 is the slowest and has a two-level
/// critical path crossing tids.
const char* kTrace = R"({"traceEvents":[
{"name":"process_name","ph":"M","pid":0,"args":{"name":"apds"}},
{"name":"request","cat":"apds","ph":"X","pid":0,"tid":1,"ts":10,"dur":900,
 "args":{"req":7,"span":100,"parent":0}},
{"name":"apd.propagate","cat":"apds","ph":"X","pid":0,"tid":1,"ts":20,
 "dur":850,"args":{"req":7,"span":101,"parent":100}},
{"name":"apd.layer","cat":"apds","ph":"X","pid":0,"tid":2,"ts":30,
 "dur":700,"args":{"req":7,"span":102,"parent":101}},
{"name":"req","cat":"flow","ph":"s","id":102,"pid":0,"tid":1,"ts":30},
{"name":"req","cat":"flow","ph":"f","bp":"e","id":102,"pid":0,"tid":2,"ts":30},
{"name":"request","cat":"apds","ph":"X","pid":0,"tid":1,"ts":2000,"dur":50,
 "args":{"req":9,"span":200,"parent":0}},
{"name":"untagged","cat":"apds","ph":"X","pid":0,"tid":1,"ts":0,"dur":5,
 "args":{}}
]}
)";

/// Records for both traced requests; request 7 allocated more.
const char* kFlight = R"({"capacity":256,"completed":2,
"requests":[
{"request_id":9,"start_us":2000,"dur_ms":0.05,"layers_ms":[0.01],
 "n_layers":1,"input_mean":0.5,"input_absmax":0.5,"pred_mean":0.1,
 "pred_var":0.02,"allocs":8,"alloc_bytes":1024},
{"request_id":7,"start_us":10,"dur_ms":0.9,"layers_ms":[0.2,0.7],
 "n_layers":2,"input_mean":1.25,"input_absmax":4.5,"pred_mean":0.3,
 "pred_var":0.05,"allocs":24,"alloc_bytes":4096}
]}
)";

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

// Each test gets its own fixture directory and output file: ctest runs
// every test as its own (possibly concurrent) process in the shared build
// directory.
class ReportTest : public ::testing::Test {
 protected:
  void SetUp() override {
#ifndef REPORT_BIN
    GTEST_SKIP() << "REPORT_BIN not configured";
#endif
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = std::string("report_") + info->test_suite_name() + "_" +
           info->name();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }

  void add(const std::string& name, const std::string& text) {
    write_file(dir_ + "/" + name, text);
  }

  /// Run apds_report with `args`; out() reads its stdout+stderr.
  int report(const std::string& args) {
#ifdef REPORT_BIN
    return run_cmd(std::string(REPORT_BIN) + " " + args + " > " + dir_ +
                   ".out 2>&1");
#else
    (void)args;
    return -1;
#endif
  }
  std::string out() const { return read_file(dir_ + ".out"); }

  std::string dir_;
};

using TraceReportTest = ReportTest;
using ProfileReportTest = ReportTest;

TEST_F(TraceReportTest, ReportsSlowestRequestsWithCriticalPathAndFlightJoin) {
  add("trace.json", kTrace);
  add("flight.json", kFlight);
  ASSERT_EQ(report(dir_), 0) << out();
  const std::string out = this->out();
  EXPECT_NE(out.find("2 request(s) in trace"), std::string::npos) << out;
  // Slowest first: request 7 (0.9 ms) before request 9 (0.05 ms).
  EXPECT_LT(out.find("request 7:"), out.find("request 9:")) << out;
  EXPECT_NE(out.find("3 span(s) on 2 thread(s)"), std::string::npos) << out;
  // Critical path descends request -> propagate -> layer across tids.
  const std::size_t root = out.find("request  0.9000 ms  (tid 1)");
  const std::size_t mid = out.find("apd.propagate  0.8500 ms  (tid 1)");
  const std::size_t leaf = out.find("apd.layer  0.7000 ms  (tid 2)");
  EXPECT_NE(root, std::string::npos) << out;
  EXPECT_NE(mid, std::string::npos) << out;
  EXPECT_NE(leaf, std::string::npos) << out;
  EXPECT_LT(root, mid);
  EXPECT_LT(mid, leaf);
  // Flight join: the record line and the per-layer breakdown made it in.
  EXPECT_NE(out.find("allocs 24 (4096 bytes)"), std::string::npos) << out;
  EXPECT_NE(out.find("0.2000 0.7000 ms"), std::string::npos) << out;
  // The span totals come last and, unlike the per-request view, count the
  // untagged span too.
  const std::size_t totals = out.find("span totals (top 4 of 4 names)");
  ASSERT_NE(totals, std::string::npos) << out;
  EXPECT_GT(totals, out.find("flight: 2 request(s)")) << out;
  EXPECT_NE(out.find("untagged", totals), std::string::npos) << out;
}

TEST_F(TraceReportTest, RequestFilterFindsAndExitCodesMissing) {
  add("trace.json", kTrace);
  ASSERT_EQ(report(dir_ + " --request 9"), 0) << out();
  const std::string out = this->out();
  EXPECT_NE(out.find("request 9:"), std::string::npos) << out;
  EXPECT_EQ(out.find("request 7:"), std::string::npos) << out;
  EXPECT_EQ(out.find("span totals"), std::string::npos) << out;

  // Unknown request id is the exit-1 contract CI leans on.
  EXPECT_EQ(report(dir_ + " --request 12345"), 1) << this->out();
}

TEST_F(TraceReportTest, UsageAndParseErrorsExitTwo) {
  add("trace.json", kTrace);
  EXPECT_EQ(report(""), 2);
  EXPECT_EQ(report(dir_ + " --top 0"), 2);
  EXPECT_EQ(report(dir_ + " --request"), 2);
  // --top and --request are the only flags.
  EXPECT_EQ(report(dir_ + " --flight " + dir_ + "/flight.json"), 2);
  EXPECT_EQ(report(dir_ + " --folded out.folded"), 2);
  EXPECT_EQ(report(dir_ + " " + dir_), 2);
  EXPECT_EQ(report("no_such_dir"), 2);
  EXPECT_EQ(report(dir_ + "/trace.json"), 2);  // a file, not a directory

  add("trace.json", "{\"traceEvents\":[");
  EXPECT_EQ(report(dir_), 2) << out();
  add("trace.json", "{\"other\":1}");
  EXPECT_EQ(report(dir_), 2) << out();
  EXPECT_NE(out().find("no \"traceEvents\" array"), std::string::npos)
      << out();

  // A directory holding none of the report's inputs is an error too.
  std::filesystem::remove(dir_ + "/trace.json");
  EXPECT_EQ(report(dir_), 2) << out();
}

TEST_F(TraceReportTest, TopLimitsTheTableAndUntaggedSpansAreIgnored) {
  add("trace.json", kTrace);
  ASSERT_EQ(report(dir_ + " --top 1"), 0) << out();
  const std::string out = this->out();
  EXPECT_NE(out.find("slowest 1"), std::string::npos) << out;
  EXPECT_EQ(out.find("request 9:"), std::string::npos) << out;
  // The per-request view never shows the untagged span...
  const std::size_t totals = out.find("span totals (top 1 of 4 names)");
  ASSERT_NE(totals, std::string::npos) << out;
  EXPECT_EQ(out.substr(0, totals).find("untagged"), std::string::npos)
      << out;
  // ...and --top 1 keeps only the heaviest name in the totals.
  EXPECT_NE(out.find("request ", totals), std::string::npos) << out;
  EXPECT_EQ(out.find("apd.layer", totals), std::string::npos) << out;
}

TEST_F(ProfileReportTest, RendersSelfTimeAndBothBackendTableShapes) {
  add("profile.json", kProfile);
  ASSERT_EQ(report(dir_), 0) << out();
  const std::string out = this->out();
  EXPECT_NE(out.find("40 samples (2 dropped) on 3 thread(s)"),
            std::string::npos)
      << out;
  // No trace or flight in the directory: only the profile sections.
  EXPECT_EQ(out.find("request(s)"), std::string::npos) << out;
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
  EXPECT_NE(out.find("2.00"), std::string::npos) << out;    // ipc
  EXPECT_NE(out.find("10.00%"), std::string::npos) << out;  // miss rate
  const std::size_t scalar_row = out.find("scalar");
  ASSERT_NE(scalar_row, std::string::npos) << out;
  EXPECT_NE(out.find("-", scalar_row), std::string::npos) << out;
}

TEST_F(ProfileReportTest, FlightJoinSurfacesAllocationAccounting) {
  add("profile.json", kProfile);
  add("flight.json", kFlight);
  ASSERT_EQ(report(dir_), 0) << out();
  const std::string out = this->out();
  EXPECT_NE(out.find("2 request(s), mean 16.0 allocs / 2560 bytes"),
            std::string::npos)
      << out;
  // Request 7 (24 allocs) sorts above request 9 (8 allocs).
  const std::size_t top = out.find("top 2 by allocations");
  ASSERT_NE(top, std::string::npos) << out;
  EXPECT_LT(out.find("\n  7 ", top), out.find("\n  9 ", top)) << out;
}

TEST_F(ProfileReportTest, FoldedReEmissionMatchesTheEmbeddedStacks) {
#ifndef MICRO_KERNELS_BIN
  GTEST_SKIP() << "MICRO_KERNELS_BIN not configured";
#else
  // The collapsed stacks ObsSession writes to profile.folded are the
  // profile JSON's "folded" array, line for line.
  ASSERT_EQ(run_cmd(std::string(MICRO_KERNELS_BIN) + " --obs-dir " + dir_ +
                    " --filter apd_session_b1_f32 > " + dir_ +
                    ".bench.out 2>&1"),
            0)
      << read_file(dir_ + ".bench.out");
  const tools::JsonValue profile =
      tools::parse_json_file(dir_ + "/profile.json");
  const tools::JsonValue* stacks = profile.find("folded");
  ASSERT_NE(stacks, nullptr);
  std::string folded;
  for (const tools::JsonValue& line : stacks->array)
    folded += line.string + "\n";
  EXPECT_FALSE(folded.empty());
  EXPECT_EQ(read_file(dir_ + "/profile.folded"), folded);
  EXPECT_EQ(report(dir_), 0) << out();
#endif
}

TEST_F(ProfileReportTest, UsageAndParseErrorsExitTwo) {
  add("profile.json", "{\"self_time\":[");
  EXPECT_EQ(report(dir_), 2) << out();
  add("profile.json", kProfile);
  add("flight.json", "{\"capacity\":16}");
  EXPECT_EQ(report(dir_), 2) << out();
  EXPECT_NE(out().find("no \"requests\" array"), std::string::npos) << out();
}

TEST(ProfileReportE2E, MicroKernelsAttributesDistinctKernelBackends) {
#if !defined(MICRO_KERNELS_BIN) || !defined(REPORT_BIN)
  GTEST_SKIP() << "bench/report binaries not configured";
#else
  // One fast propagate row is enough to cross the instrumented kernel
  // paths.
  const std::string filter = " --filter apd_session_b1_f32";
  const std::string native_dir = "report_e2e_native";
  const std::string scalar_dir = "report_e2e_scalar";
  std::filesystem::remove_all(native_dir);
  std::filesystem::remove_all(scalar_dir);
  // The native run must not inherit an APDS_KERNEL override from the
  // suite's own environment (CI reruns the suite with APDS_KERNEL=scalar).
  ASSERT_EQ(run_cmd(std::string("env -u APDS_KERNEL ") + MICRO_KERNELS_BIN +
                    " --obs-dir " + native_dir + filter +
                    " > report_e2e_native.out 2>&1"),
            0)
      << read_file("report_e2e_native.out");
  ASSERT_EQ(run_cmd(std::string("APDS_KERNEL=scalar ") + MICRO_KERNELS_BIN +
                    " --obs-dir " + scalar_dir + filter +
                    " > report_e2e_scalar.out 2>&1"),
            0)
      << read_file("report_e2e_scalar.out");

  const std::string native_json = read_file(native_dir + "/profile.json");
  const std::string scalar_json = read_file(scalar_dir + "/profile.json");
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

  // The report tool digests the whole directory, keying its backend table
  // by the dispatched tier.
  ASSERT_EQ(run_cmd(std::string(REPORT_BIN) + " " + scalar_dir +
                    " > report_e2e_report.out 2>&1"),
            0)
      << read_file("report_e2e_report.out");
  const std::string report = read_file("report_e2e_report.out");
  EXPECT_NE(report.find("kernel backend: scalar"), std::string::npos)
      << report;
  EXPECT_NE(report.find("span totals"), std::string::npos) << report;
  // The ObsSession also wrote the companion folded file.
  EXPECT_FALSE(read_file(scalar_dir + "/profile.folded").empty());

  // A filter that matches no row is a usage error: exit 2, no report.
  const std::string json = "report_e2e_nomatch.json";
  std::filesystem::remove(json);
  EXPECT_EQ(run_cmd(std::string(MICRO_KERNELS_BIN) +
                    " --filter no_such_row --json " + json +
                    " > report_e2e_nomatch.out 2>&1"),
            2)
      << read_file("report_e2e_nomatch.out");
  EXPECT_FALSE(std::filesystem::exists(json));
#endif
}

}  // namespace
}  // namespace apds
