#include "common/rng.h"

#include <gtest/gtest.h>

#include "common/error.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <numeric>
#include <set>

namespace apds {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i)
    if (a.next() == b.next()) ++same;
  EXPECT_LT(same, 3);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, UniformMeanIsHalf) {
  Rng rng(11);
  double acc = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) acc += rng.uniform();
  EXPECT_NEAR(acc / n, 0.5, 0.01);
}

TEST(Rng, UniformIndexStaysInRange) {
  Rng rng(13);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 10000; ++i) {
    const auto v = rng.uniform_index(7);
    EXPECT_LT(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all values hit
}

TEST(Rng, UniformIndexRejectsZero) {
  Rng rng(1);
  EXPECT_THROW(rng.uniform_index(0), InvalidArgument);
}

TEST(Rng, NormalMomentsMatchStandardGaussian) {
  Rng rng(17);
  const int n = 200000;
  double sum = 0.0;
  double sum2 = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sum2 += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum2 / n, 1.0, 0.03);
}

TEST(Rng, NormalWithParamsShiftsAndScales) {
  Rng rng(19);
  const int n = 100000;
  double sum = 0.0;
  double sum2 = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal(5.0, 2.0);
    sum += x;
    sum2 += x * x;
  }
  const double mean = sum / n;
  EXPECT_NEAR(mean, 5.0, 0.05);
  EXPECT_NEAR(sum2 / n - mean * mean, 4.0, 0.15);
}

TEST(Rng, BernoulliFrequencyMatchesP) {
  Rng rng(23);
  const int n = 100000;
  int hits = 0;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, BernoulliDegenerateProbabilities) {
  Rng rng(29);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(Rng, LognormalIsPositiveWithExpectedMedian) {
  Rng rng(31);
  const int n = 50000;
  std::vector<double> xs(n);
  for (auto& x : xs) {
    x = rng.lognormal(0.0, 0.5);
    EXPECT_GT(x, 0.0);
  }
  std::nth_element(xs.begin(), xs.begin() + n / 2, xs.end());
  EXPECT_NEAR(xs[n / 2], 1.0, 0.05);  // median of lognormal(0, s) is 1
}

TEST(Rng, SplitStreamsAreDecorrelated) {
  Rng parent(37);
  Rng child = parent.split();
  double dot = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    dot += (parent.uniform() - 0.5) * (child.uniform() - 0.5);
  }
  EXPECT_NEAR(dot / n, 0.0, 0.005);
}

TEST(Rng, ShuffleProducesPermutation) {
  Rng rng(41);
  std::vector<std::size_t> idx(100);
  std::iota(idx.begin(), idx.end(), 0);
  rng.shuffle(idx);
  std::vector<std::size_t> sorted = idx;
  std::sort(sorted.begin(), sorted.end());
  for (std::size_t i = 0; i < sorted.size(); ++i) EXPECT_EQ(sorted[i], i);
}

TEST(Rng, ShuffleActuallyMoves) {
  Rng rng(43);
  std::vector<std::size_t> idx(100);
  std::iota(idx.begin(), idx.end(), 0);
  rng.shuffle(idx);
  std::size_t moved = 0;
  for (std::size_t i = 0; i < idx.size(); ++i)
    if (idx[i] != i) ++moved;
  EXPECT_GT(moved, 50u);
}

// bernoulli_below(bernoulli_threshold(p)) is the integer form of
// bernoulli(p): the same outcome for every draw and the same state after
// it. The threshold t is the boundary itself: m = t - 1 is the largest
// 53-bit draw with m 2^-53 < p. p = 1 (every draw), a tiny p (only m = 0),
// p = 0.75 (p 2^53 an integer, so m = t lands exactly on p and fails),
// and ordinary and out-of-range values.
TEST(Rng, BernoulliThresholdMatchesUniformDraw) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const double p : {1.0, 1e-300, 0x1.0p-60, 0.75, 0.3, 0.9,
                         0.5 + 0x1.0p-53, 0.0, -0.5, 2.0, nan}) {
    SCOPED_TRACE(p);
    const std::uint64_t t = Rng::bernoulli_threshold(p);
    ASSERT_LE(t, std::uint64_t{1} << 53);
    if (t > 0) {
      EXPECT_LT(static_cast<double>(t - 1) * 0x1.0p-53, p);
    }
    if (t < (std::uint64_t{1} << 53)) {
      EXPECT_FALSE(static_cast<double>(t) * 0x1.0p-53 < p);
    }
    Rng a(17), b(17);
    for (int i = 0; i < 20000; ++i)
      ASSERT_EQ(a.bernoulli_below(t), b.bernoulli(p)) << "draw " << i;
    EXPECT_EQ(a.next(), b.next());
  }
  EXPECT_EQ(Rng::bernoulli_threshold(1.0), std::uint64_t{1} << 53);
  EXPECT_EQ(Rng::bernoulli_threshold(1e-300), 1u);
  EXPECT_EQ(Rng::bernoulli_threshold(0.75), std::uint64_t{3} << 51);
  EXPECT_EQ(Rng::bernoulli_threshold(0.0), 0u);
  EXPECT_EQ(Rng::bernoulli_threshold(nan), 0u);
}

TEST(Rng, SatisfiesUniformRandomBitGenerator) {
  static_assert(std::uniform_random_bit_generator<Rng>);
  SUCCEED();
}

}  // namespace
}  // namespace apds
