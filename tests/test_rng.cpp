#include "common/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

namespace pcap::common {
namespace {

TEST(Rng, DeterministicFromSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanNearHalf) {
  Rng rng(11);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, UniformRange) {
  Rng rng(13);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, UniformIntBoundsInclusive) {
  Rng rng(17);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 5000; ++i) {
    const auto v = rng.uniform_int(3, 8);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 8);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 6u);  // all values reachable
}

TEST(Rng, UniformIntSingleton) {
  Rng rng(19);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.uniform_int(42, 42), 42);
}

TEST(Rng, UniformIntNegativeRange) {
  Rng rng(23);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(-10, -5);
    EXPECT_GE(v, -10);
    EXPECT_LE(v, -5);
  }
}

TEST(Rng, NormalMoments) {
  Rng rng(29);
  const int n = 200000;
  double sum = 0.0;
  double sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sq += x * x;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.02);
  EXPECT_NEAR(var, 1.0, 0.03);
}

TEST(Rng, NormalShifted) {
  Rng rng(31);
  double sum = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) sum += rng.normal(10.0, 2.0);
  EXPECT_NEAR(sum / n, 10.0, 0.1);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(41);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    if (rng.bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, IndexWithinBounds) {
  Rng rng(47);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.index(7), 7u);
  }
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(59);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> orig = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(Rng, ForkedStreamsAreIndependent) {
  Rng parent(61);
  Rng a = parent.fork(1);
  Rng b = parent.fork(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, ForkByStringTagReproducible) {
  Rng p1(71);
  Rng p2(71);
  Rng a = p1.fork("meter");
  Rng b = p2.fork("meter");
  EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, HashTagDistinguishesStrings) {
  EXPECT_NE(hash_tag("meter"), hash_tag("jobs"));
  EXPECT_EQ(hash_tag("x"), hash_tag("x"));
}

TEST(OrnsteinUhlenbeck, RelaxesToMean) {
  Rng rng(73);
  OrnsteinUhlenbeck ou(5.0, 0.0, 10.0, 0.0);  // zero noise
  double v = 0.0;
  for (int i = 0; i < 100; ++i) v = ou.step(1.0, rng);
  EXPECT_NEAR(v, 5.0, 0.01);
}

TEST(OrnsteinUhlenbeck, StationaryVariance) {
  Rng rng(79);
  OrnsteinUhlenbeck ou(0.0, 2.0, 5.0, 0.0);
  // Warm up past several relaxation times, then sample.
  for (int i = 0; i < 100; ++i) ou.step(1.0, rng);
  double sq = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double x = ou.step(1.0, rng);
    sq += x * x;
  }
  // Stationary sd should be ~2. Samples are correlated, so be generous.
  EXPECT_NEAR(std::sqrt(sq / n), 2.0, 0.2);
}

TEST(RngStream, DoesNotAdvanceParent) {
  Rng parent(123);
  Rng untouched(123);
  (void)parent.stream(0);
  (void)parent.stream(7);
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(parent.next_u64(), untouched.next_u64());
  }
}

TEST(RngStream, PureFunctionOfParentStateAndIndex) {
  // stream(i) must depend only on (parent state, i) — never on which
  // other streams were derived first. This is what makes per-node draws
  // order-independent under a parallel sweep.
  Rng a(42);
  Rng b(42);
  Rng ordered = a.stream(5);
  (void)b.stream(3);
  (void)b.stream(9);
  Rng interleaved = b.stream(5);
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(ordered.next_u64(), interleaved.next_u64());
  }
}

TEST(RngStream, DistinctIndicesDecorrelate) {
  Rng parent(7);
  Rng s0 = parent.stream(0);
  Rng s1 = parent.stream(1);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (s0.next_u64() == s1.next_u64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(RngStream, AdjacentIndicesHaveUnbiasedOutput) {
  // SplitMix64 finalization should leave no visible correlation between
  // neighbouring stream indices: averaged uniforms stay near 1/2.
  Rng parent(2026);
  double sum = 0.0;
  const int streams = 2000;
  for (int i = 0; i < streams; ++i) {
    Rng s = parent.stream(static_cast<std::uint64_t>(i));
    sum += s.uniform();
  }
  EXPECT_NEAR(sum / streams, 0.5, 0.02);
}

TEST(OrnsteinUhlenbeck, ResetOverridesValue) {
  Rng rng(83);
  OrnsteinUhlenbeck ou(0.0, 1.0, 5.0, 3.0);
  EXPECT_DOUBLE_EQ(ou.value(), 3.0);
  ou.reset(-1.0);
  EXPECT_DOUBLE_EQ(ou.value(), -1.0);
}

}  // namespace
}  // namespace pcap::common
