#include <cmath>
#include <gtest/gtest.h>

#include "src/common/error.h"
#include "src/common/rng.h"
#include "src/common/types.h"

namespace rush {
namespace {

TEST(Rng, DeterministicForEqualSeeds) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next() == b.next()) ++equal;
  }
  EXPECT_LT(equal, 3);
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
  Rng rng(8);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(5.0, 9.0);
    EXPECT_GE(u, 5.0);
    EXPECT_LT(u, 9.0);
  }
}

TEST(Rng, UniformIntCoversRangeInclusively) {
  Rng rng(9);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.uniform_int(2, 5);
    EXPECT_GE(v, 2);
    EXPECT_LE(v, 5);
    saw_lo |= (v == 2);
    saw_hi |= (v == 5);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
  EXPECT_THROW(rng.uniform_int(5, 2), std::invalid_argument);
}

TEST(Rng, NormalMomentsAreRight) {
  Rng rng(10);
  double sum = 0.0, sum_sq = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal(3.0, 2.0);
    sum += x;
    sum_sq += x * x;
  }
  const double mean = sum / n;
  const double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, 3.0, 0.05);
  EXPECT_NEAR(var, 4.0, 0.15);
}

TEST(Rng, NormalAtLeastRespectsFloor) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_GE(rng.normal_at_least(10.0, 20.0, 1.0), 1.0);
  }
}

TEST(Rng, ExponentialMeanIsRight) {
  Rng rng(12);
  double sum = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(130.0);
  EXPECT_NEAR(sum / n, 130.0, 3.0);
  EXPECT_THROW(rng.exponential(0.0), std::invalid_argument);
}

TEST(Rng, LognormalNoiseHasMedianOne) {
  Rng rng(13);
  std::vector<double> draws;
  for (int i = 0; i < 10001; ++i) draws.push_back(rng.lognormal_noise(0.4));
  std::sort(draws.begin(), draws.end());
  EXPECT_NEAR(draws[5000], 1.0, 0.05);
  for (double d : draws) EXPECT_GT(d, 0.0);
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng parent(21);
  Rng child = parent.split();
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (parent.next() == child.next()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(Rng, PickWeightedFollowsWeights) {
  Rng rng(22);
  std::vector<double> weights = {1.0, 0.0, 3.0};
  std::vector<int> counts(3, 0);
  for (int i = 0; i < 20000; ++i) ++counts[rng.pick_weighted(weights)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[0], 3.0, 0.25);
  EXPECT_THROW(rng.pick_weighted({0.0, 0.0}), std::invalid_argument);
  EXPECT_THROW(rng.pick_weighted({-1.0, 2.0}), std::invalid_argument);
}

TEST(ErrorHelpers, RequireAndEnsure) {
  EXPECT_NO_THROW(require(true, "ok"));
  EXPECT_THROW(require(false, "bad input"), InvalidInput);
  EXPECT_NO_THROW(ensure(true, "ok"));
  EXPECT_THROW(ensure(false, "bug"), InternalError);
  try {
    require(false, "specific message");
    FAIL();
  } catch (const InvalidInput& e) {
    EXPECT_STREQ(e.what(), "specific message");
  }
}

TEST(Types, SensitivityNames) {
  EXPECT_EQ(to_string(Sensitivity::kTimeCritical), "critical");
  EXPECT_EQ(to_string(Sensitivity::kTimeSensitive), "sensitive");
  EXPECT_EQ(to_string(Sensitivity::kTimeInsensitive), "insensitive");
}

}  // namespace
}  // namespace rush
