#include "src/utility/utility_function.h"

#include <cmath>
#include <limits>
#include <memory>
#include <gtest/gtest.h>

#include "src/common/error.h"

namespace rush {
namespace {

constexpr Seconds kHorizon = 1e6;

TEST(LinearUtility, ValueMatchesFormula) {
  const LinearUtility u(100.0, 5.0, 0.1);  // max(0.1*(100-T)+5, 0)
  EXPECT_DOUBLE_EQ(u.value(0.0), 15.0);
  EXPECT_DOUBLE_EQ(u.value(100.0), 5.0);
  EXPECT_DOUBLE_EQ(u.value(150.0), 0.0);
  EXPECT_DOUBLE_EQ(u.value(1000.0), 0.0);
}

TEST(LinearUtility, InverseIsExactWhereStrictlyDecreasing) {
  const LinearUtility u(100.0, 5.0, 0.1);
  EXPECT_DOUBLE_EQ(u.inverse(5.0, kHorizon), 100.0);
  EXPECT_DOUBLE_EQ(u.inverse(10.0, kHorizon), 50.0);
  EXPECT_DOUBLE_EQ(u.inverse(15.0, kHorizon), 0.0);
  // Unreachable level: more than U(0).
  EXPECT_TRUE(std::isinf(u.inverse(16.0, kHorizon)));
  EXPECT_LT(u.inverse(16.0, kHorizon), 0.0);
  // Free level: utility is 0 at the horizon anyway.
  EXPECT_DOUBLE_EQ(u.inverse(0.0, kHorizon), kHorizon);
  EXPECT_DOUBLE_EQ(u.inverse(-3.0, kHorizon), kHorizon);
}

TEST(SigmoidUtility, HalfPriorityAtBudget) {
  const SigmoidUtility u(200.0, 4.0, 0.05);
  EXPECT_NEAR(u.value(200.0), 2.0, 1e-12);
  EXPECT_GT(u.value(0.0), u.value(100.0));
  EXPECT_GT(u.value(100.0), u.value(300.0));
  // Non-increasing orientation: late completion -> utility tends to zero.
  EXPECT_LT(u.value(2000.0), 1e-6);
}

TEST(SigmoidUtility, InverseRoundTrips) {
  const SigmoidUtility u(200.0, 4.0, 0.05);
  for (double level : {0.5, 1.0, 2.0, 3.0, 3.9}) {
    const Seconds t = u.inverse(level, kHorizon);
    ASSERT_TRUE(std::isfinite(t));
    EXPECT_NEAR(u.value(t), level, 1e-9);
  }
  EXPECT_TRUE(std::isinf(u.inverse(4.0, kHorizon)));  // sup not attained
  EXPECT_TRUE(std::isinf(u.inverse(5.0, kHorizon)));
  EXPECT_DOUBLE_EQ(u.inverse(0.0, kHorizon), kHorizon);  // level 0 is free
  // A tiny positive level is *not* free: the sigmoid eventually dips below
  // it, and the inverse is the exact crossing time.
  const Seconds tiny = u.inverse(1e-12, kHorizon);
  EXPECT_LT(tiny, kHorizon);
  EXPECT_NEAR(u.value(tiny), 1e-12, 1e-13);
}

TEST(SigmoidUtility, UnreachableWhenLevelRequiresNegativeTime) {
  // Steep sigmoid with tiny budget: levels near W need T << 0.
  const SigmoidUtility u(1.0, 4.0, 2.0);
  EXPECT_TRUE(std::isinf(u.inverse(3.999, kHorizon)));
}

TEST(ConstantUtility, FlatEverywhere) {
  const ConstantUtility u(3.0);
  EXPECT_DOUBLE_EQ(u.value(0.0), 3.0);
  EXPECT_DOUBLE_EQ(u.value(1e9), 3.0);
  EXPECT_DOUBLE_EQ(u.inverse(3.0, kHorizon), kHorizon);
  EXPECT_DOUBLE_EQ(u.inverse(1.0, kHorizon), kHorizon);
  EXPECT_TRUE(std::isinf(u.inverse(3.1, kHorizon)));
}

TEST(StepUtility, HardDeadline) {
  const StepUtility u(50.0, 2.0);
  EXPECT_DOUBLE_EQ(u.value(50.0), 2.0);
  EXPECT_DOUBLE_EQ(u.value(50.001), 0.0);
  EXPECT_DOUBLE_EQ(u.inverse(2.0, kHorizon), 50.0);
  EXPECT_DOUBLE_EQ(u.inverse(0.0, kHorizon), kHorizon);
  EXPECT_TRUE(std::isinf(u.inverse(2.5, kHorizon)));
}

TEST(UtilityFactory, BuildsEveryClassAndRejectsUnknown) {
  EXPECT_EQ(make_utility("linear", 10, 1, 0.5)->name(), "linear");
  EXPECT_EQ(make_utility("sigmoid", 10, 1, 0.5)->name(), "sigmoid");
  EXPECT_EQ(make_utility("constant", 10, 1, 0.5)->name(), "constant");
  EXPECT_EQ(make_utility("step", 10, 1, 0.5)->name(), "step");
  EXPECT_THROW(make_utility("quadratic", 10, 1, 0.5), InvalidInput);
}

TEST(UtilityFactory, ParameterValidation) {
  EXPECT_THROW(LinearUtility(-1.0, 1.0, 0.5), InvalidInput);
  EXPECT_THROW(LinearUtility(1.0, 1.0, 0.0), InvalidInput);
  EXPECT_THROW(SigmoidUtility(1.0, 0.0, 0.5), InvalidInput);
  EXPECT_THROW(ConstantUtility(-2.0), InvalidInput);
}

TEST(UtilityFunction, CloneIsIndependentAndEqualValued) {
  const SigmoidUtility original(100.0, 3.0, 0.1);
  const auto copy = original.clone();
  for (double t : {0.0, 50.0, 100.0, 200.0}) {
    EXPECT_DOUBLE_EQ(copy->value(t), original.value(t));
  }
}

// Property sweep across all classes: non-increasing values, non-negative
// values, and the inverse contract U(U^{-1}(L)) >= L wherever finite.
struct UtilityCase {
  const char* kind;
  Seconds budget;
  Priority priority;
  double beta;
};

class UtilityPropertyTest : public ::testing::TestWithParam<UtilityCase> {};

TEST_P(UtilityPropertyTest, NonIncreasingNonNegative) {
  const UtilityCase& c = GetParam();
  const auto u = make_utility(c.kind, c.budget, c.priority, c.beta);
  double prev = std::numeric_limits<double>::infinity();
  for (double t = 0.0; t <= 1000.0; t += 7.3) {
    const double v = u->value(t);
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, prev + 1e-12);
    prev = v;
  }
}

TEST_P(UtilityPropertyTest, InverseContract) {
  const UtilityCase& c = GetParam();
  const auto u = make_utility(c.kind, c.budget, c.priority, c.beta);
  const double max_level = u->value(0.0);
  for (double frac : {0.0, 0.1, 0.5, 0.9, 0.999}) {
    const double level = frac * max_level;
    const Seconds t = u->inverse(level, kHorizon);
    if (!std::isfinite(t)) continue;
    EXPECT_GE(u->value(t), level - 1e-9) << c.kind << " level=" << level;
    // Latest such time: a bit later must dip below the level unless the
    // function has plateaued at/above it through the horizon.
    if (t + 1.0 < kHorizon && u->value(kHorizon) < level - 1e-9) {
      EXPECT_LT(u->value(t + 1.0), level + 1e-9);
    }
  }
}

// The onion peel's per-probe entry point: handed value(horizon), it must
// return inverse()'s result bit for bit, at any level and horizon.
TEST_P(UtilityPropertyTest, InverseKnownHorizonEqualsInverse) {
  const UtilityCase& c = GetParam();
  const auto u = make_utility(c.kind, c.budget, c.priority, c.beta);
  const double max_level = u->value(0.0);
  for (const Seconds horizon : {30.0, 150.0, kHorizon}) {
    for (double frac = -0.1; frac <= 1.1; frac += 0.01) {
      const Utility level = frac * max_level;
      EXPECT_EQ(u->inverse_known_horizon(level, horizon, u->value(horizon)),
                u->inverse(level, horizon))
          << c.kind << " level=" << level << " horizon=" << horizon;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, UtilityPropertyTest,
    ::testing::Values(UtilityCase{"linear", 100.0, 5.0, 0.1},
                      UtilityCase{"linear", 10.0, 1.0, 2.0},
                      UtilityCase{"sigmoid", 200.0, 4.0, 0.05},
                      UtilityCase{"sigmoid", 50.0, 2.0, 0.5},
                      UtilityCase{"constant", 0.0, 3.0, 1.0},
                      UtilityCase{"step", 120.0, 2.5, 1.0}));

}  // namespace
}  // namespace rush
