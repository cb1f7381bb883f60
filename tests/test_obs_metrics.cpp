#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <cmath>
#include <thread>
#include <vector>

#include "common/error.h"
#include "json_check.h"

namespace apds {
namespace {

TEST(Counter, AccumulatesAndResets) {
  Counter c;
  EXPECT_EQ(c.value(), 0);
  c.increment();
  c.add(41);
  EXPECT_EQ(c.value(), 42);
  c.add(-2);
  EXPECT_EQ(c.value(), 40);
  c.reset();
  EXPECT_EQ(c.value(), 0);
}

TEST(Counter, IsThreadSafe) {
  Counter c;
  constexpr int kThreads = 4;
  constexpr int kIncrements = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&c] {
      for (int i = 0; i < kIncrements; ++i) c.increment();
    });
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), kThreads * kIncrements);
}

TEST(GaugeTest, HoldsLastWrite) {
  Gauge g;
  EXPECT_EQ(g.value(), 0.0);
  g.set(1.5);
  g.set(-2.25);
  EXPECT_EQ(g.value(), -2.25);
  g.reset();
  EXPECT_EQ(g.value(), 0.0);
}

TEST(LatencyHistogramTest, CountsAndBucketsObservations) {
  LatencyHistogram h(0.01, 100.0, 4);  // one decade per bucket
  h.observe(0.05);   // bucket 0: [0.01, 0.1)
  h.observe(5.5);    // bucket 2: [1, 10)
  h.observe(5.9);    // bucket 2
  h.observe(999.0);  // clamps to the top bucket, still counted
  h.observe(0.0);    // at or below lo_ms: clamps to the bottom bucket
  EXPECT_EQ(h.count(), 5u);

  const Histogram buckets = h.buckets();
  EXPECT_EQ(buckets.count(0), 2u);
  EXPECT_EQ(buckets.count(1), 0u);
  EXPECT_EQ(buckets.count(2), 2u);
  EXPECT_EQ(buckets.count(3), 1u);

  const RunningStats stats = h.stats();
  EXPECT_EQ(stats.count(), 5u);
  EXPECT_NEAR(stats.mean(), (0.05 + 5.5 + 5.9 + 999.0) / 5.0, 1e-12);
  EXPECT_EQ(stats.min(), 0.0);
  EXPECT_EQ(stats.max(), 999.0);

  h.reset();
  EXPECT_EQ(h.count(), 0u);
}

TEST(LatencyHistogramTest, PercentileInterpolatesWithinBuckets) {
  LatencyHistogram h(0.1, 1000.0, 400);  // ~2.3 % per bucket
  for (int i = 1; i <= 100; ++i) h.observe(static_cast<double>(i) - 0.5);
  // With buckets this narrow, the interpolated percentile lands within one
  // bucket's ratio of the sample at that rank.
  EXPECT_NEAR(h.percentile(0.50), 50.0, 50.0 * 0.03);
  EXPECT_NEAR(h.percentile(0.95), 95.0, 95.0 * 0.03);
  EXPECT_NEAR(h.percentile(0.99), 99.0, 99.0 * 0.03);
  EXPECT_NEAR(h.p50_ms(), h.percentile(0.50), 1e-12);
  EXPECT_NEAR(h.p99_ms(), h.percentile(0.99), 1e-12);

  // Within one bucket the interpolation is geometric: halfway through
  // [10, 100) is sqrt(10 * 100), not 55.
  LatencyHistogram g(1.0, 100.0, 2);
  g.observe(2.0);
  g.observe(50.0);
  EXPECT_NEAR(g.percentile(0.75), std::sqrt(1000.0), 1e-9);
}

TEST(LatencyHistogramTest, LogSpacedLayoutResolvesSubMillisecondLatencies) {
  MetricsRegistry registry;
  LatencyHistogram& h = registry.histogram("request.ms");
  EXPECT_EQ(h.lo_ms(), 1e-3);
  EXPECT_EQ(h.hi_ms(), 100.0);
  // 0.005-0.009 ms requests plus one slow outlier. A linear 0-100 ms grid
  // puts all of them in bucket 0 and reconstructs the p50 from its width;
  // the log grid keeps the p50 at the median's scale.
  for (int i = 0; i < 99; ++i) h.observe(0.005 + 0.004 * i / 98.0);
  h.observe(40.0);
  EXPECT_NEAR(h.p50_ms(), 0.007, 0.0015);
  EXPECT_GT(h.p99_ms(), 0.008);
  EXPECT_EQ(h.percentile(1.0), 40.0);
  const Histogram buckets = h.buckets();
  EXPECT_EQ(buckets.bins(), 32u);
  // log10(40) + 3 = 4.6 in steps of 5/32 -> bucket 29.
  EXPECT_EQ(buckets.count(29), 1u);
  // Zero (and anything at or below 1 us) pins to the first bucket.
  h.observe(0.0);
  EXPECT_EQ(h.buckets().count(0), 1u);
  EXPECT_THROW(LatencyHistogram(0.0, 1.0, 4), InvalidArgument);
}

TEST(LatencyHistogramTest, PercentileClampsToObservedRange) {
  LatencyHistogram lo(1.0, 1000.0, 3);
  lo.observe(2.5);
  // Bucket interpolation alone would report the bucket's lower edge (1.0);
  // the observed-minimum clamp keeps the reconstruction honest.
  EXPECT_EQ(lo.percentile(0.0), 2.5);
  EXPECT_EQ(lo.percentile(0.5), 2.5);

  LatencyHistogram hi(1.0, 1000.0, 3);
  hi.observe(5000.0);  // out of range: lands in the top bucket
  // Interpolation would say ~[100,1000); the observed-maximum clamp
  // restores the true extreme.
  EXPECT_EQ(hi.percentile(0.5), 5000.0);
  EXPECT_EQ(hi.percentile(1.0), 5000.0);
}

TEST(LatencyHistogramTest, PercentileOfEmptyHistogramIsZero) {
  LatencyHistogram h(0.01, 10.0, 10);
  EXPECT_EQ(h.percentile(0.5), 0.0);
}

TEST(MetricsRegistryTest, JsonExportsHistogramPercentiles) {
  MetricsRegistry registry;
  LatencyHistogram& h = registry.histogram("infer.ms");
  for (int i = 0; i < 100; ++i) h.observe(2.0);
  const std::string json = registry.to_json();
  EXPECT_TRUE(testing::json_valid(json)) << json;
  EXPECT_NE(json.find("\"p50_ms\":"), std::string::npos);
  EXPECT_NE(json.find("\"p95_ms\":"), std::string::npos);
  EXPECT_NE(json.find("\"p99_ms\":"), std::string::npos);
}

TEST(MetricsRegistryTest, JsonKeysAreSortedAndStable) {
  MetricsRegistry registry;
  registry.counter("zeta").increment();
  registry.counter("alpha").increment();
  registry.counter("mid").increment();
  const std::string json = registry.to_json();
  const auto a = json.find("\"alpha\"");
  const auto m = json.find("\"mid\"");
  const auto z = json.find("\"zeta\"");
  ASSERT_NE(a, std::string::npos);
  ASSERT_NE(m, std::string::npos);
  ASSERT_NE(z, std::string::npos);
  EXPECT_LT(a, m);
  EXPECT_LT(m, z);
  // Registration order must not matter: a fresh registry filled in a
  // different order serializes identically.
  MetricsRegistry other;
  other.counter("mid").increment();
  other.counter("zeta").increment();
  other.counter("alpha").increment();
  EXPECT_EQ(other.to_json(), json);
}

TEST(MetricsRegistryTest, LookupCreatesOnceAndIsStable) {
  MetricsRegistry registry;
  Counter& a = registry.counter("a");
  a.add(7);
  // Same name returns the same object.
  EXPECT_EQ(&registry.counter("a"), &a);
  EXPECT_EQ(registry.counter("a").value(), 7);
  // Counters, gauges, and histograms live in separate namespaces.
  registry.gauge("a").set(1.0);
  registry.histogram("a").observe(0.5);
  EXPECT_EQ(registry.num_metrics(), 3u);
}

TEST(MetricsRegistryTest, ResetZeroesWithoutInvalidatingReferences) {
  MetricsRegistry registry;
  Counter& c = registry.counter("events");
  Gauge& g = registry.gauge("level");
  LatencyHistogram& h = registry.histogram("lat");
  c.add(5);
  g.set(3.0);
  h.observe(1.0);
  registry.reset();
  EXPECT_EQ(c.value(), 0);
  EXPECT_EQ(g.value(), 0.0);
  EXPECT_EQ(h.count(), 0u);
  // The references are still the registered objects.
  c.increment();
  EXPECT_EQ(registry.counter("events").value(), 1);
}

TEST(MetricsRegistryTest, JsonExportIsWellFormedAndComplete) {
  MetricsRegistry registry;
  registry.counter("mcdrop.samples").add(500);
  registry.gauge("train.loss").set(0.125);
  LatencyHistogram& h = registry.histogram("infer.ms", 1.0, 1e4, 4);
  h.observe(3.0);   // bucket 0: [1, 10)
  h.observe(30.0);  // bucket 1: [10, 100)
  // A name needing escaping must not break the JSON.
  registry.counter("weird\"name").increment();

  const std::string json = registry.to_json();
  EXPECT_TRUE(testing::json_valid(json)) << json;
  EXPECT_NE(json.find("\"mcdrop.samples\":500"), std::string::npos);
  EXPECT_NE(json.find("\"train.loss\":0.125"), std::string::npos);
  EXPECT_NE(json.find("\"infer.ms\""), std::string::npos);
  EXPECT_NE(json.find("\"buckets\":[1,1,0,0]"), std::string::npos);
}

TEST(MetricsRegistryTest, EmptyRegistryExportsValidJson) {
  MetricsRegistry registry;
  EXPECT_TRUE(testing::json_valid(registry.to_json()));
}

TEST(MetricsRegistryTest, HistogramRangeAppliesOnFirstCreationOnly) {
  MetricsRegistry registry;
  LatencyHistogram& h = registry.histogram("x", 0.1, 10.0, 5);
  EXPECT_EQ(&registry.histogram("x", 99.0, 100.0, 50), &h);
  EXPECT_EQ(&registry.histogram("x"), &h);
  EXPECT_EQ(h.lo_ms(), 0.1);
  EXPECT_EQ(h.hi_ms(), 10.0);
}

TEST(MetricsRegistryTest, GlobalInstanceIsSingleton) {
  EXPECT_EQ(&MetricsRegistry::instance(), &MetricsRegistry::instance());
}

}  // namespace
}  // namespace apds
