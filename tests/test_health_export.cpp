// Tier-1 guard for the health-export path: runs the real `quickstart`
// example with `--health` and validates the emitted snapshot JSON, so the
// ObsSession flag wiring and the exporter cannot silently rot; and checks
// that an argument the shared flags do not know fails loudly instead of
// being ignored. QUICKSTART_BIN is injected by tests/CMakeLists.txt.
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

TEST(HealthExport, QuickstartEmitsValidSnapshot) {
#ifndef QUICKSTART_BIN
  GTEST_SKIP() << "QUICKSTART_BIN not configured";
#else
  const std::string health_path = "quickstart_health_e2e.json";
  std::remove(health_path.c_str());

  const std::string cmd = std::string(QUICKSTART_BIN) + " --health " +
                          health_path + " > quickstart_health_e2e.out 2>&1";
  ASSERT_EQ(std::system(cmd.c_str()), 0) << read_file(
      "quickstart_health_e2e.out");

  const std::string json = read_file(health_path);
  ASSERT_FALSE(json.empty()) << "health file missing or empty";
  EXPECT_TRUE(testing::json_valid(json)) << json;
  // The snapshot must carry real data from the run: calibration coverage
  // and per-feature drift.
  EXPECT_NE(json.find("\"calibration\":{\"count\":200"), std::string::npos);
  EXPECT_NE(json.find("\"nominal\":0.9"), std::string::npos);
  EXPECT_NE(json.find("\"drift\":{\"rows\":200"), std::string::npos);
  EXPECT_NE(json.find("\"ks_p\":"), std::string::npos);
  EXPECT_NE(json.find("\"alerts\":["), std::string::npos);

  // The example's own console summary of the streaming monitors.
  const std::string stdout_text = read_file("quickstart_health_e2e.out");
  EXPECT_NE(stdout_text.find("Streaming health"), std::string::npos);
  EXPECT_NE(stdout_text.find("latency p50"), std::string::npos);
#endif
}

TEST(HealthExport, QuickstartRejectsUnknownFlag) {
#ifndef QUICKSTART_BIN
  GTEST_SKIP() << "QUICKSTART_BIN not configured";
#else
  // quickstart takes only the shared flags; anything left over (here a
  // flag that no longer exists) must exit 2 with the usage, before any
  // training.
  const std::string out_path = "quickstart_unknown_flag.out";
  const std::string cmd =
      std::string(QUICKSTART_BIN) + " --prom x > " + out_path + " 2>&1";
  const int status = std::system(cmd.c_str());
  ASSERT_TRUE(WIFEXITED(status)) << read_file(out_path);
  EXPECT_EQ(WEXITSTATUS(status), 2) << read_file(out_path);
  const std::string text = read_file(out_path);
  EXPECT_NE(text.find("unknown argument '--prom'"), std::string::npos)
      << text;
  EXPECT_NE(text.find("--health <file>"), std::string::npos) << text;
  EXPECT_EQ(text.find("Streaming health"), std::string::npos) << text;
#endif
}

}  // namespace
}  // namespace apds
