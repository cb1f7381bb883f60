// Golden-fixture suite for tools/apds_lint: every rule fires exactly once
// on its bad fixture, suppression comments work in all three forms, clean
// files exit 0, and the exit-code/JSON contracts hold. APDS_LINT_BIN and
// LINT_FIXTURES_DIR are injected by tests/CMakeLists.txt.
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "json_check.h"

namespace apds {
namespace {

#if defined(APDS_LINT_BIN) && defined(LINT_FIXTURES_DIR)

std::string read_file(const std::string& path) {
  std::ifstream is(path);
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

struct LintRun {
  int exit_code = -1;
  std::string output;  // stdout + stderr
};

/// Run apds_lint with `args`, capturing output and the real exit code.
/// The capture file carries the test name: each TEST runs as its own
/// (possibly concurrent) ctest entry in the shared build directory, so a
/// per-process counter alone collides across sibling tests.
LintRun run_lint(const std::string& args) {
  static int counter = 0;
  const std::string out_path =
      std::string("lint_out_") +
      ::testing::UnitTest::GetInstance()->current_test_info()->name() + "_" +
      std::to_string(++counter) + ".txt";
  const std::string cmd = std::string(APDS_LINT_BIN) + " " + args + " > " +
                          out_path + " 2>&1";
  const int status = std::system(cmd.c_str());
  LintRun run;
  run.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  run.output = read_file(out_path);
  std::remove(out_path.c_str());
  return run;
}

std::size_t count_of(const std::string& haystack, const std::string& needle) {
  std::size_t count = 0;
  for (std::size_t pos = haystack.find(needle); pos != std::string::npos;
       pos = haystack.find(needle, pos + needle.size()))
    ++count;
  return count;
}

const std::string kFixtures = LINT_FIXTURES_DIR;

TEST(ApdsLint, EveryRuleFiresExactlyOnceOnItsFixture) {
  const LintRun run =
      run_lint("--root " + kFixtures + " --json " + kFixtures);
  EXPECT_EQ(run.exit_code, 1) << run.output;
  ASSERT_TRUE(testing::json_valid(run.output)) << run.output;

  const struct {
    const char* rule;
    const char* file;
  } expected[] = {
      {"no-unseeded-rng", "src/bad_rng.cpp"},
      {"float-equal", "src/bad_float_equal.cpp"},
      {"pow-square", "src/bad_pow_square.cpp"},
      {"naked-new", "src/bad_naked_new.cpp"},
      {"raw-io", "src/bad_raw_io.cpp"},
      {"f32-double-literal", "src/tensor/kernels/kernel_body.inl"},
      {"f32-libm-double", "src/stats/fast_math.cpp"},
      {"trapping-math", "src/CMakeLists.txt"},
      {"kernel-isa-flags", "src/kernels/CMakeLists.txt"},
      {"perf-syscall", "src/bad_perf_syscall.cpp"},
      {"hot-path-thread-local", "src/core/bad_thread_local.cpp"},
      {"layer-dag", "src/stats/bad_layering.cpp"},
  };
  for (const auto& e : expected) {
    EXPECT_EQ(count_of(run.output,
                       std::string("\"rule\": \"") + e.rule + "\""),
              1u)
        << "rule " << e.rule << " must fire exactly once\n" << run.output;
    EXPECT_EQ(count_of(run.output,
                       std::string("\"file\": \"") + e.file + "\""),
              1u)
        << "file " << e.file << " must appear exactly once\n" << run.output;
  }
  // Exactly the 12 seeded violations — nothing extra anywhere. In
  // particular the cross-TU near-miss stays clean: bad_layering.cpp's
  // down-layer common include.
  EXPECT_EQ(count_of(run.output, "\"rule\": "), 12u) << run.output;
}

TEST(ApdsLint, SuppressionsCoverAllThreeFormsAndAreCounted) {
  const LintRun run = run_lint("--root " + kFixtures + " --json " +
                               kFixtures + "/src/suppressed.cpp");
  EXPECT_EQ(run.exit_code, 0) << run.output;
  ASSERT_TRUE(testing::json_valid(run.output)) << run.output;
  EXPECT_NE(run.output.find("\"suppressed\": 3"), std::string::npos)
      << run.output;
  EXPECT_EQ(count_of(run.output, "\"rule\": "), 0u) << run.output;
}

TEST(ApdsLint, CleanFileExitsZero) {
  const LintRun run = run_lint("--root " + kFixtures + " " + kFixtures +
                               "/src/clean.cpp");
  EXPECT_EQ(run.exit_code, 0) << run.output;
  EXPECT_NE(run.output.find("0 violation(s)"), std::string::npos)
      << run.output;
}

TEST(ApdsLint, HumanOutputNamesFileLineAndRule) {
  const LintRun run = run_lint("--root " + kFixtures + " " + kFixtures +
                               "/src/bad_float_equal.cpp");
  EXPECT_EQ(run.exit_code, 1);
  EXPECT_NE(run.output.find("src/bad_float_equal.cpp:3: [float-equal]"),
            std::string::npos)
      << run.output;
}

TEST(ApdsLint, UsageAndIoErrorsExitTwo) {
  EXPECT_EQ(run_lint("").exit_code, 2);                     // no paths
  EXPECT_EQ(run_lint("--no-such-flag x").exit_code, 2);     // bad flag
  EXPECT_EQ(run_lint("definitely/not/a/path.cpp").exit_code, 2);
}

TEST(ApdsLint, UnreadableLintableFileMidScanExitsTwoAndNamesIt) {
  // A lintable name that isn't a readable regular file (dangling symlink)
  // inside a scanned directory must abort the scan with exit 2 and name
  // the path — a "clean" report over a partially read tree would be a lie.
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::path("lint_unreadable_dir_").concat(std::to_string(::getpid()));
  fs::create_directory(dir);
  const fs::path ghost = dir / "ghost.cpp";
  std::error_code ec;
  fs::create_symlink(dir / "no_such_target.cpp", ghost, ec);
  ASSERT_FALSE(ec) << ec.message();

  const LintRun run = run_lint("--root " + dir.string() + " " + dir.string());
  EXPECT_EQ(run.exit_code, 2) << run.output;
  EXPECT_NE(run.output.find("ghost.cpp"), std::string::npos) << run.output;
  fs::remove_all(dir);
}

TEST(ApdsLint, JsonCarriesPerRuleTiming) {
  const LintRun run = run_lint("--root " + kFixtures + " --json " +
                               kFixtures + "/src/clean.cpp");
  EXPECT_EQ(run.exit_code, 0) << run.output;
  ASSERT_TRUE(testing::json_valid(run.output)) << run.output;
  EXPECT_NE(run.output.find("\"rule_timing_ms\""), std::string::npos)
      << run.output;
  // Every rule is timed, including the cross-TU one (it runs over the
  // corpus even when it is a single file).
  EXPECT_NE(run.output.find("\"layer-dag\""), std::string::npos)
      << run.output;
}

TEST(ApdsLint, IncludeGraphEmitsTextAndDot) {
  namespace fs = std::filesystem;
  const fs::path dot =
      fs::path("lint_graph_").concat(std::to_string(::getpid()))
          .concat(".dot");
  const LintRun run = run_lint("--include-graph --dot " + dot.string() +
                               " --root " + kFixtures + " " + kFixtures);
  EXPECT_EQ(run.exit_code, 0) << run.output;
  // bad_layering.cpp's up-layer include is an edge in the module graph.
  EXPECT_NE(run.output.find("src/stats -> src/core"), std::string::npos)
      << run.output;
  const std::string dot_text = read_file(dot.string());
  EXPECT_NE(dot_text.find("digraph apds_include_graph"), std::string::npos)
      << dot_text;
  EXPECT_NE(dot_text.find("\"src/stats\" -> \"src/core\""),
            std::string::npos)
      << dot_text;
  fs::remove(dot);
}

TEST(ApdsLint, ListRulesPrintsTheFullTable) {
  const LintRun run = run_lint("--list-rules");
  EXPECT_EQ(run.exit_code, 0);
  for (const char* rule :
       {"no-unseeded-rng", "float-equal", "pow-square", "naked-new",
        "raw-io", "f32-double-literal", "f32-libm-double", "trapping-math",
        "kernel-isa-flags", "perf-syscall", "hot-path-thread-local",
        "layer-dag"})
    EXPECT_NE(run.output.find(rule), std::string::npos) << rule;
  EXPECT_EQ(count_of(run.output, "\n"), 12u) << run.output;
}

#else
TEST(ApdsLint, Skipped) { GTEST_SKIP() << "APDS_LINT_BIN not configured"; }
#endif

}  // namespace
}  // namespace apds
