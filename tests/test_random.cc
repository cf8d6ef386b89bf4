#include "sim/random.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace ntier::sim {
namespace {

TEST(Rng, DeterministicFromSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next_u64() == b.next_u64()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, ForkStreamsDecorrelated) {
  Rng parent(7);
  Rng a = parent.fork(0);
  Rng b = parent.fork(1);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next_u64() == b.next_u64()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, ForkDeterministic) {
  Rng p1(9), p2(9);
  Rng c1 = p1.fork(3), c2 = p2.fork(3);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(c1.next_u64(), c2.next_u64());
}

TEST(Rng, UniformInUnitInterval) {
  Rng r(5);
  for (int i = 0; i < 10000; ++i) {
    const double u = r.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeAndMean) {
  Rng r(5);
  double acc = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double u = r.uniform(2.0, 4.0);
    EXPECT_GE(u, 2.0);
    EXPECT_LT(u, 4.0);
    acc += u;
  }
  EXPECT_NEAR(acc / n, 3.0, 0.02);
}

TEST(Rng, UniformIndexBounds) {
  Rng r(6);
  EXPECT_EQ(r.uniform_index(0), 0u);
  EXPECT_EQ(r.uniform_index(1), 0u);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(r.uniform_index(13), 13u);
}

TEST(Rng, ExponentialMeanAndPositivity) {
  Rng r(11);
  const int n = 50000;
  double acc = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = r.exponential(2.5);
    EXPECT_GT(x, 0.0);
    acc += x;
  }
  EXPECT_NEAR(acc / n, 2.5, 0.05);
}

TEST(Rng, ExponentialScv) {
  // SCV of exponential is 1.
  Rng r(12);
  const int n = 50000;
  double s = 0.0, s2 = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = r.exponential(1.0);
    s += x;
    s2 += x * x;
  }
  const double mean = s / n;
  const double var = s2 / n - mean * mean;
  EXPECT_NEAR(var / (mean * mean), 1.0, 0.06);
}

TEST(Rng, NormalMoments) {
  Rng r(13);
  const int n = 50000;
  double s = 0.0, s2 = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = r.normal(10.0, 2.0);
    s += x;
    s2 += x * x;
  }
  const double mean = s / n;
  EXPECT_NEAR(mean, 10.0, 0.05);
  EXPECT_NEAR(std::sqrt(s2 / n - mean * mean), 2.0, 0.05);
}

TEST(Rng, ChanceFrequency) {
  Rng r(15);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i)
    if (r.chance(0.3)) ++hits;
  EXPECT_NEAR(hits / double(n), 0.3, 0.02);
}

TEST(Rng, ExpDuration) {
  Rng r(18);
  double acc = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const Duration d = r.exp_duration(Duration::millis(100));
    EXPECT_GE(d, Duration::zero());
    acc += d.to_seconds();
  }
  EXPECT_NEAR(acc / n, 0.1, 0.003);
}

}  // namespace
}  // namespace ntier::sim
