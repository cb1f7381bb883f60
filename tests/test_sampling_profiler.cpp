// The timer-signal sampling profiler, exercised the way ObsSession drives
// it: start, sample several busy threads (registered the way pool-worker
// hooks register themselves), read the report concurrently with sampling
// (the fill-once buffer contract), stop, export. Runs under the
// `concurrency` ctest label so the TSan job covers the handler/report
// publication protocol.
//
// Assertions avoid exact sample counts (CI machines stall arbitrarily)
// but do require SOME samples from a long busy loop. The timers run on
// each thread's CPU-time clock, so a busy thread must produce ticks and a
// blocked one none.
#include "obs/sampling_profiler.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

namespace apds {
namespace {

using Clock = std::chrono::steady_clock;

void busy_for_ms(int ms) {
  const auto until = Clock::now() + std::chrono::milliseconds(ms);
  volatile std::uint64_t sink = 0;
  while (Clock::now() < until) {
    for (int i = 0; i < 10000; ++i) sink = sink + static_cast<std::uint64_t>(i);
  }
}

class SamplingProfilerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::SamplingProfiler& p = obs::SamplingProfiler::instance();
    if (!p.start(500)) GTEST_SKIP() << "per-thread timers unavailable";
    p.stop();
    p.reset();
  }
  void TearDown() override {
    obs::SamplingProfiler::instance().stop();
    obs::SamplingProfiler::instance().reset();
  }
};

TEST_F(SamplingProfilerTest, StartIsIdempotentAndStopsClean) {
  obs::SamplingProfiler& p = obs::SamplingProfiler::instance();
  EXPECT_FALSE(p.running());
  ASSERT_TRUE(p.start(500));
  EXPECT_TRUE(p.running());
  EXPECT_EQ(p.interval_us(), 500u);
  EXPECT_TRUE(p.start(500));  // idempotent while running
  p.stop();
  EXPECT_FALSE(p.running());
  p.stop();  // idempotent when stopped
}

TEST_F(SamplingProfilerTest, SamplesBusyThreadsAndAggregatesAReport) {
  obs::SamplingProfiler& p = obs::SamplingProfiler::instance();
  ASSERT_TRUE(p.start(500));

  std::atomic<bool> go{true};
  std::vector<std::thread> workers;
  for (int t = 0; t < 2; ++t) {
    workers.emplace_back([&go] {
      obs::SamplingProfiler::register_current_thread();
      while (go.load(std::memory_order_relaxed)) busy_for_ms(10);
      obs::SamplingProfiler::unregister_current_thread();
    });
  }
  // Concurrent report() while the handlers are still publishing: the
  // fill-once buffer makes this race-free (the TSan job checks it).
  busy_for_ms(150);
  (void)p.report();
  busy_for_ms(150);
  go.store(false);
  for (std::thread& w : workers) w.join();
  p.stop();

  EXPECT_GT(p.sample_count(), 0u) << "300 ms busy at 500 us produced "
                                     "no samples";
  const obs::SamplingProfiler::Report report = p.report();
  EXPECT_EQ(report.samples, p.sample_count());
  EXPECT_EQ(report.dropped, p.dropped_count());
  EXPECT_EQ(report.interval_us, 500u);
  EXPECT_GE(report.threads, 1u);
  ASSERT_FALSE(report.self_time.empty());
  // Self-time is sorted descending and fractions sum to ~1.
  double total_fraction = 0.0;
  std::uint64_t prev = report.self_time.front().samples;
  std::uint64_t total_samples = 0;
  for (const auto& entry : report.self_time) {
    EXPECT_LE(entry.samples, prev);
    prev = entry.samples;
    total_fraction += entry.fraction;
    total_samples += entry.samples;
    EXPECT_FALSE(entry.symbol.empty());
  }
  EXPECT_EQ(total_samples, report.samples);
  EXPECT_NEAR(total_fraction, 1.0, 1e-9);
  // Folded lines account for every sample too.
  std::uint64_t folded_samples = 0;
  for (const auto& [stack, count] : report.folded) {
    EXPECT_FALSE(stack.empty());
    folded_samples += count;
  }
  EXPECT_EQ(folded_samples, report.samples);
}

TEST_F(SamplingProfilerTest, BlockedThreadTakesNoSamples) {
  // An idle pool worker waits on a condition variable; on CPU-time clocks
  // it must not be sampled while the calling thread spins.
  obs::SamplingProfiler& p = obs::SamplingProfiler::instance();
  ASSERT_TRUE(p.start(500));
  std::mutex mu;
  std::condition_variable cv;
  bool registered = false;
  bool release = false;
  std::thread blocked([&] {
    obs::SamplingProfiler::register_current_thread();
    std::unique_lock<std::mutex> lock(mu);
    registered = true;
    cv.notify_all();
    cv.wait(lock, [&] { return release; });
    lock.unlock();
    obs::SamplingProfiler::unregister_current_thread();
  });
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return registered; });
  }
  busy_for_ms(200);
  p.stop();  // disarm before the blocked thread wakes and runs again
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  blocked.join();

  // Only the spinning thread (the one start() registered) has samples.
  const obs::SamplingProfiler::Report report = p.report();
  EXPECT_GT(report.samples, 0u) << "200 ms busy at 500 us produced none";
  EXPECT_EQ(report.threads, 1u) << "the blocked thread was sampled";
}

TEST_F(SamplingProfilerTest, FoldedExportIsFlamegraphShaped) {
  obs::SamplingProfiler& p = obs::SamplingProfiler::instance();
  ASSERT_TRUE(p.start(500));
  busy_for_ms(200);
  p.stop();
  ASSERT_GT(p.sample_count(), 0u);

  std::ostringstream folded;
  p.write_folded(folded);
  const std::string text = folded.str();
  ASSERT_FALSE(text.empty());
  // Every line is "frame[;frame...] count" — ends in a space + integer.
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    const std::size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    ASSERT_LT(space + 1, line.size()) << line;
    for (std::size_t i = space + 1; i < line.size(); ++i)
      EXPECT_TRUE(line[i] >= '0' && line[i] <= '9') << line;
  }

  std::ostringstream json;
  obs::write_profile_json(json);
  const std::string doc = json.str();
  EXPECT_NE(doc.find("\"samples\":"), std::string::npos);
  EXPECT_NE(doc.find("\"self_time\":"), std::string::npos);
  EXPECT_NE(doc.find("\"folded\":"), std::string::npos);
  EXPECT_NE(doc.find("\"perf_availability\":"), std::string::npos);
}

TEST_F(SamplingProfilerTest, ResetDropsSamples) {
  obs::SamplingProfiler& p = obs::SamplingProfiler::instance();
  ASSERT_TRUE(p.start(500));
  busy_for_ms(100);
  p.stop();
  ASSERT_GT(p.sample_count(), 0u);
  p.reset();
  EXPECT_EQ(p.sample_count(), 0u);
  EXPECT_EQ(p.report().samples, 0u);
}

}  // namespace
}  // namespace apds
