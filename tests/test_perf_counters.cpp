// The hardware-counter layer: availability ladder, ratio math, region
// gating/nesting and the per-backend attribution table. Counter-denied
// machines (containers without a PMU, locked-down perf_event_paranoid)
// are first-class here — every assertion about counter VALUES is made
// consistent with perf_availability() rather than absolute, while the
// attribution bookkeeping (region counts per backend) is asserted
// unconditionally, because it must work even without counter data.
//
// The APDS_PERF=off override is the documented hook for simulating a
// paranoid denial on any machine; it is probed once per process, so the
// test re-executes itself (via /proc/self/exe) with the env set and
// asserts the child saw kDisabledByEnv.
#include "obs/perf_counters.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "tensor/kernels/kernel_dispatch.h"

#if defined(__linux__)
#include <sys/wait.h>
#include <unistd.h>
#endif

namespace apds {
namespace {

/// Something for a counter region to count.
std::uint64_t burn() {
  volatile std::uint64_t sink = 0;
  for (std::uint64_t i = 0; i < 200000; ++i) sink = sink + i * i;
  return sink;
}

bool counters_live() {
  return obs::perf_availability() == obs::PerfAvailability::kAvailable;
}

/// Tests mutate the process-wide table/switch; scrub around each one.
class PerfCountersTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::set_perf_profiling(false);
    obs::KernelPerfTable::instance().reset();
    clear_global_kernel_backend();
  }
  void TearDown() override { SetUp(); }
};

TEST(PerfCounters, AvailabilityNamesCoverEveryState) {
  EXPECT_STREQ(
      obs::perf_availability_name(obs::PerfAvailability::kAvailable),
      "available");
  EXPECT_STREQ(
      obs::perf_availability_name(obs::PerfAvailability::kDisabledByEnv),
      "disabled-by-env");
  EXPECT_STREQ(obs::perf_availability_name(obs::PerfAvailability::kDenied),
               "denied");
  EXPECT_STREQ(
      obs::perf_availability_name(obs::PerfAvailability::kUnsupported),
      "unsupported");
  // The probed state is one of the four, and the reason string matches:
  // empty exactly when available.
  const obs::PerfAvailability a = obs::perf_availability();
  EXPECT_NE(obs::perf_availability_name(a), nullptr);
  EXPECT_EQ(obs::perf_unavailable_reason().empty(), counters_live());
}

TEST(PerfCounters, DerivedRatesAreScaleFreeAndNaNWhenUndefined) {
  obs::PerfCounterValues v;
  v.cycles = 1000;
  v.instructions = 2500;
  v.cache_references = 200;
  v.cache_misses = 50;
  v.branch_misses = 25;
  v.time_enabled_ns = 100;
  v.time_running_ns = 50;
  v.valid = true;
  EXPECT_DOUBLE_EQ(v.ipc(), 2.5);
  EXPECT_DOUBLE_EQ(v.cache_miss_rate(), 0.25);
  EXPECT_DOUBLE_EQ(v.branch_miss_rate(), 0.01);
  EXPECT_DOUBLE_EQ(v.multiplex_scale(), 2.0);

  obs::PerfCounterValues z;
  z.valid = true;  // valid sample, zero denominators
  EXPECT_TRUE(std::isnan(z.ipc()));
  EXPECT_TRUE(std::isnan(z.cache_miss_rate()));
  EXPECT_TRUE(std::isnan(z.branch_miss_rate()));

  v.valid = false;  // invalid sample: every rate is NaN, counts or not
  EXPECT_TRUE(std::isnan(v.ipc()));
  EXPECT_TRUE(std::isnan(v.cache_miss_rate()));
  EXPECT_TRUE(std::isnan(v.branch_miss_rate()));
}

TEST(PerfCounters, AccumulationSumsCountsAndTimes) {
  obs::PerfCounterValues a;
  a.cycles = 10;
  a.instructions = 20;
  a.time_enabled_ns = 5;
  a.valid = true;
  obs::PerfCounterValues b;
  b.cycles = 1;
  b.instructions = 2;
  b.time_enabled_ns = 3;
  b.valid = true;
  a += b;
  EXPECT_EQ(a.cycles, 11u);
  EXPECT_EQ(a.instructions, 22u);
  EXPECT_EQ(a.time_enabled_ns, 8u);
  EXPECT_TRUE(a.valid);
}

TEST(PerfCounters, ThreadLocalGroupMatchesProbedAvailability) {
  obs::PerfCounterGroup& g = obs::PerfCounterGroup::thread_local_group();
  EXPECT_EQ(g.available(), counters_live());
  // Same object every time on this thread (regions must not churn fds).
  EXPECT_EQ(&g, &obs::PerfCounterGroup::thread_local_group());

  g.start();
  burn();
  g.stop();
  const obs::PerfCounterValues v = g.read();
  EXPECT_EQ(v.valid, counters_live());
  if (v.valid) {
    EXPECT_GT(v.cycles, 0u);
    EXPECT_GT(v.instructions, 0u);
    EXPECT_GT(v.time_enabled_ns, 0u);
  } else {
    EXPECT_EQ(v.cycles, 0u);
    EXPECT_EQ(v.instructions, 0u);
  }
}

TEST(PerfCounters, PerfMeasureRunsTheCallableEveryIteration) {
  std::size_t calls = 0;
  const obs::PerfCounterValues v =
      obs::perf_measure([&] { ++calls; burn(); }, 3);
  EXPECT_EQ(calls, 3u);
  EXPECT_EQ(v.valid, counters_live());
}

TEST_F(PerfCountersTest, GatedRegionIsInertWhenProfilingOff) {
  ASSERT_FALSE(obs::perf_profiling_enabled());
  {
    obs::PerfCounterRegion region;
    burn();
  }
  for (std::size_t b = 0; b < obs::KernelPerfTable::kBackends; ++b)
    EXPECT_EQ(obs::KernelPerfTable::instance().regions(b), 0u) << b;
}

TEST_F(PerfCountersTest, RegionsAttributeToTheDispatchedBackend) {
  obs::set_perf_profiling(true);
  ASSERT_TRUE(obs::perf_profiling_enabled());

  set_global_kernel_backend(KernelBackend::kScalar);
  {
    obs::PerfCounterRegion region;
    burn();
  }
  const auto scalar = static_cast<std::size_t>(KernelBackend::kScalar);
  obs::KernelPerfTable& table = obs::KernelPerfTable::instance();
  EXPECT_EQ(table.regions(scalar), 1u);

  const KernelBackend best = best_supported_backend();
  set_global_kernel_backend(best);
  {
    obs::PerfCounterRegion region;
    burn();
  }
  EXPECT_EQ(table.regions(static_cast<std::size_t>(best)),
            best == KernelBackend::kScalar ? 2u : 1u);

  // Counter totals are valid exactly when the PMU is; the region COUNT
  // above is what keeps attribution testable on denied machines.
  EXPECT_EQ(table.total(scalar).valid, counters_live());
  if (counters_live()) {
    EXPECT_GT(table.total(scalar).cycles, 0u);
  }

  table.reset();
  for (std::size_t b = 0; b < obs::KernelPerfTable::kBackends; ++b)
    EXPECT_EQ(table.regions(b), 0u) << b;
}

TEST_F(PerfCountersTest, NestedRegionsOnOneThreadCountOnce) {
  obs::set_perf_profiling(true);
  set_global_kernel_backend(KernelBackend::kScalar);
  {
    obs::PerfCounterRegion outer;
    {
      obs::PerfCounterRegion inner;  // thread's group is busy: inert
      burn();
    }
    burn();
  }
  std::uint64_t total_regions = 0;
  for (std::size_t b = 0; b < obs::KernelPerfTable::kBackends; ++b)
    total_regions += obs::KernelPerfTable::instance().regions(b);
  EXPECT_EQ(total_regions, 1u);
}

TEST_F(PerfCountersTest, ExplicitRegionBypassesTheGateAndTheTable) {
  ASSERT_FALSE(obs::perf_profiling_enabled());
  obs::PerfCounterValues out;
  {
    obs::PerfCounterRegion region(&out);
    burn();
  }
  EXPECT_EQ(out.valid, counters_live());
  // Deliberate measurements go to *out, never into the attribution table.
  for (std::size_t b = 0; b < obs::KernelPerfTable::kBackends; ++b)
    EXPECT_EQ(obs::KernelPerfTable::instance().regions(b), 0u) << b;
}

TEST(PerfCounters, EnvOverrideSimulatesDenialInChildProcess) {
#if !defined(__linux__)
  GTEST_SKIP() << "re-exec via /proc/self/exe is Linux-only";
#else
  if (std::getenv("APDS_PERF_TEST_CHILD") != nullptr) {
    // Child half: APDS_PERF=off was set before the first probe.
    EXPECT_EQ(obs::perf_availability(),
              obs::PerfAvailability::kDisabledByEnv);
    EXPECT_FALSE(obs::perf_unavailable_reason().empty());
    EXPECT_FALSE(obs::PerfCounterGroup::thread_local_group().available());
    obs::PerfCounterValues out;
    {
      obs::PerfCounterRegion region(&out);
      burn();
    }
    EXPECT_FALSE(out.valid);
    return;
  }
  char exe[4096];
  const ssize_t n = ::readlink("/proc/self/exe", exe, sizeof(exe) - 1);
  ASSERT_GT(n, 0);
  exe[n] = '\0';
  const std::string out_path = "perf_env_child.out";
  const std::string cmd =
      std::string("APDS_PERF=off APDS_PERF_TEST_CHILD=1 '") + exe +
      "' --gtest_filter=PerfCounters.EnvOverrideSimulatesDenialInChildProcess"
      " > " + out_path + " 2>&1";
  const int status = std::system(cmd.c_str());
  std::ifstream is(out_path);
  std::ostringstream os;
  os << is.rdbuf();
  ASSERT_TRUE(WIFEXITED(status)) << os.str();
  EXPECT_EQ(WEXITSTATUS(status), 0) << os.str();
#endif
}

}  // namespace
}  // namespace apds
