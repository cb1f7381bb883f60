// Tier-1 guard for the --obs-dir export path: runs the real `quickstart`
// example with `--obs-dir` and checks the artifacts it writes, so
// the exporters (and the bench/example flag wiring behind them) cannot
// silently rot; checks that --obs-dir refuses a path that is not a
// directory, and that an argument the shared flags do not know fails
// loudly instead of being ignored. QUICKSTART_BIN is injected by
// tests/CMakeLists.txt.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>

#include "common/error.h"
#include "json_check.h"
#include "json_dom.h"
#include "obs/run_options.h"

namespace apds {
namespace {

using tools::JsonValue;
using tools::require_number;

std::string read_file(const std::string& path) {
  std::ifstream is(path);
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

/// `v[key]`, or a test failure naming the missing key.
const JsonValue& at(const JsonValue& v, const std::string& key) {
  const JsonValue* child = v.find(key);
  if (!child) throw std::runtime_error("missing key \"" + key + "\"");
  return *child;
}

#ifdef QUICKSTART_BIN
/// Run quickstart with `--obs-dir <dir>/run/` (a missing nested directory,
/// which the session creates) and return its stdout+stderr. Each test
/// uses its own `dir`: ctest runs every test as its own (possibly
/// concurrent) process in the shared build directory.
std::string run_quickstart(const std::string& dir) {
  std::filesystem::remove_all(dir);
  const std::string out_path = dir + ".out";
  const std::string cmd = std::string(QUICKSTART_BIN) + " --obs-dir " + dir +
                          "/run/ > " + out_path + " 2>&1";
  EXPECT_EQ(std::system(cmd.c_str()), 0) << read_file(out_path);
  return read_file(out_path);
}
#endif

TEST(TraceExport, QuickstartEmitsParseableNonEmptyTrace) {
#ifndef QUICKSTART_BIN
  GTEST_SKIP() << "QUICKSTART_BIN not configured";
#else
  const std::string stdout_text = run_quickstart("obs_export_trace");
  ASSERT_FALSE(HasFailure());
  const std::string dir = "obs_export_trace/run/";

  // trace.json: spans from the training loop, the per-layer inference
  // instrumentation and the MCDrop groups made it out.
  const std::string trace_text = read_file(dir + "trace.json");
  EXPECT_TRUE(testing::json_valid(trace_text));
  const JsonValue trace = tools::JsonParser(trace_text).parse();
  std::set<std::string> span_names;
  for (const JsonValue& e : at(trace, "traceEvents").array)
    if (at(e, "ph").string == "X") span_names.insert(at(e, "name").string);
  for (const char* name : {"apd.layer", "train.epoch", "mcdrop.group"})
    EXPECT_TRUE(span_names.count(name)) << "no " << name << " span";

  // The session prints the aggregate p50/p95 table.
  EXPECT_NE(stdout_text.find("Trace aggregate"), std::string::npos);
  EXPECT_NE(stdout_text.find("p95"), std::string::npos);
#endif
}

TEST(ObsExport, QuickstartWritesEveryArtifact) {
#ifndef QUICKSTART_BIN
  GTEST_SKIP() << "QUICKSTART_BIN not configured";
#else
  const std::string stdout_text = run_quickstart("obs_export_e2e");
  ASSERT_FALSE(HasFailure());
  const std::string dir = "obs_export_e2e/run/";

  // Exactly the five fixed names are written (the trace is checked in
  // depth above, the collapsed stacks by test_report).
  std::set<std::string> written;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    EXPECT_TRUE(entry.is_regular_file()) << entry.path();
    written.insert(entry.path().filename().string());
  }
  const std::set<std::string> expected = {"flight.json", "metrics.json",
                                          "profile.folded", "profile.json",
                                          "trace.json"};
  EXPECT_EQ(written, expected);

  // The example's console summary of its 200 served requests.
  EXPECT_NE(stdout_text.find("latency p50"), std::string::npos);

  // flight.json: completed requests, newest first, with their layers.
  const JsonValue flight = tools::parse_json_file(dir + "flight.json");
  EXPECT_GT(require_number(flight, "completed"), 0.0);
  const auto& requests = at(flight, "requests").array;
  ASSERT_FALSE(requests.empty());
  EXPECT_GT(require_number(requests[0], "request_id"), 0.0);
  EXPECT_GT(require_number(requests[0], "n_layers"), 0.0);

  // metrics.json: the request-latency histogram keeps an exemplar id.
  const JsonValue metrics = tools::parse_json_file(dir + "metrics.json");
  const JsonValue& latency =
      at(at(metrics, "histograms"), "request.latency_ms");
  EXPECT_GT(require_number(latency, "count"), 0.0);
  const auto& exemplars = at(latency, "exemplars").array;
  ASSERT_FALSE(exemplars.empty());
  EXPECT_GT(require_number(exemplars[0], "request_id"), 0.0);
#endif
}

TEST(ObsExport, ObsDirOnARegularFileIsRejected) {
  const std::string file = "obs_export_regular_file";
  std::ofstream(file) << "not a directory\n";
  char prog[] = "prog";
  char flag[] = "--obs-dir";
  std::string value = file;
  char* argv[] = {prog, flag, value.data()};
  int argc = 3;
  try {
    obs::ObsSession session(argc, argv);
    FAIL() << "--obs-dir accepted a regular file";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("--obs-dir"), std::string::npos)
        << e.what();
  }
  std::filesystem::remove(file);
}

TEST(ObsExport, QuickstartRejectsUnknownFlag) {
#ifndef QUICKSTART_BIN
  GTEST_SKIP() << "QUICKSTART_BIN not configured";
#else
  // quickstart takes only the shared flags; anything left over (here
  // --trace, which is not one) must exit 2 with the usage, before any
  // training.
  const std::string out_path = "obs_export_unknown_flag.out";
  const std::string cmd =
      std::string(QUICKSTART_BIN) + " --trace x > " + out_path + " 2>&1";
  const int status = std::system(cmd.c_str());
  ASSERT_TRUE(WIFEXITED(status)) << read_file(out_path);
  EXPECT_EQ(WEXITSTATUS(status), 2) << read_file(out_path);
  const std::string text = read_file(out_path);
  EXPECT_NE(text.find("unknown argument '--trace'"), std::string::npos)
      << text;
  EXPECT_NE(text.find("--obs-dir <dir>"), std::string::npos) << text;
  EXPECT_EQ(text.find("Served 200"), std::string::npos) << text;
#endif
}

}  // namespace
}  // namespace apds
