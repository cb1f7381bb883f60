// Tier-1 guard for the trace-export path: runs the real `quickstart`
// example with `--trace` and validates the emitted Chrome-trace JSON, so
// the export (and the bench/example flag wiring behind it) cannot silently
// rot. QUICKSTART_BIN is injected by tests/CMakeLists.txt.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "json_check.h"

namespace apds {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream is(path);
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

TEST(TraceExport, QuickstartEmitsParseableNonEmptyTrace) {
#ifndef QUICKSTART_BIN
  GTEST_SKIP() << "QUICKSTART_BIN not configured";
#else
  const std::string trace_path = "quickstart_trace_e2e.json";
  std::remove(trace_path.c_str());

  const std::string cmd = std::string(QUICKSTART_BIN) + " --trace " +
                          trace_path + " > quickstart_trace_e2e.out 2>&1";
  ASSERT_EQ(std::system(cmd.c_str()), 0) << read_file(
      "quickstart_trace_e2e.out");

  const std::string json = read_file(trace_path);
  ASSERT_FALSE(json.empty()) << "trace file missing or empty";
  EXPECT_TRUE(testing::json_valid(json));

  // Non-empty in the meaningful sense: actual spans from both the training
  // loop and the per-layer inference instrumentation made it out.
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"apd.layer\""), std::string::npos);
  EXPECT_NE(json.find("\"train.epoch\""), std::string::npos);
  EXPECT_NE(json.find("\"mcdrop.group\""), std::string::npos);

  // The session also prints the aggregate p50/p95 table.
  const std::string stdout_text = read_file("quickstart_trace_e2e.out");
  EXPECT_NE(stdout_text.find("Trace aggregate"), std::string::npos);
  EXPECT_NE(stdout_text.find("p95"), std::string::npos);
#endif
}

}  // namespace
}  // namespace apds
