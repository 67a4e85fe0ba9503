#include "src/robust/wcde.h"

#include <cmath>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/error.h"
#include "src/common/rng.h"
#include "src/robust/rem.h"

namespace rush {
namespace {

QuantizedPmf random_pmf(Rng& rng, std::size_t bins, double width = 1.0) {
  std::vector<double> w(bins);
  for (auto& x : w) x = rng.uniform() + 1e-3;
  return QuantizedPmf::from_weights(w, width);
}

TEST(Wcde, ZeroDeltaMatchesPlainQuantileUpToOneBin) {
  Rng rng(5);
  for (int trial = 0; trial < 25; ++trial) {
    const auto phi = random_pmf(rng, 64, 2.0);
    const double theta = rng.uniform(0.1, 0.9);
    const auto result = solve_wcde(phi, Probability(theta), KlRadius(0.0));
    const double plain = phi.quantile_value(Probability(theta));
    // delta = 0 keeps phi itself as the only candidate; the conservative
    // boundary convention may add at most one bin.
    EXPECT_GE(result.eta, plain - 1e-9);
    EXPECT_LE(result.eta, plain + phi.bin_width() + 1e-9);
    EXPECT_NEAR(result.reference_eta, plain, 1e-12);
  }
}

TEST(Wcde, EtaIsMonotoneInDelta) {
  Rng rng(11);
  const auto phi = random_pmf(rng, 128, 1.0);
  const double theta = 0.9;
  double prev = 0.0;
  for (double delta : {0.0, 0.05, 0.1, 0.3, 0.7, 1.0, 2.0}) {
    const double eta = solve_wcde(phi, Probability(theta), KlRadius(delta)).eta;
    EXPECT_GE(eta, prev - 1e-9) << "delta=" << delta;
    prev = eta;
  }
}

TEST(Wcde, EtaIsMonotoneInTheta) {
  Rng rng(13);
  const auto phi = random_pmf(rng, 128, 1.0);
  double prev = 0.0;
  for (double theta : {0.1, 0.3, 0.5, 0.7, 0.9, 0.99}) {
    const double eta = solve_wcde(phi, Probability(theta), KlRadius(0.5)).eta;
    EXPECT_GE(eta, prev - 1e-9) << "theta=" << theta;
    prev = eta;
  }
}

TEST(Wcde, RobustEtaNeverBelowReference) {
  Rng rng(17);
  for (int trial = 0; trial < 25; ++trial) {
    const auto phi = random_pmf(rng, 64, 3.0);
    const double theta = rng.uniform(0.2, 0.95);
    const double delta = rng.uniform(0.0, 1.5);
    const auto result = solve_wcde(phi, Probability(theta), KlRadius(delta));
    EXPECT_GE(result.eta, result.reference_eta - 1e-9);
  }
}

TEST(Wcde, HugeDeltaTruncatesAtTauMax) {
  const auto phi = QuantizedPmf::from_weights(std::vector<double>(32, 1.0), 1.0);
  const auto result = solve_wcde(phi, Probability(0.9), KlRadius(1e6));
  EXPECT_EQ(result.eta_bin, phi.bins());
  EXPECT_DOUBLE_EQ(result.eta, phi.tau_max());
}

TEST(Wcde, ImpulseReferenceIsImmuneToTheAdversary) {
  // All reference mass in one bin: the KL ball cannot move mass off the
  // support, so eta stays at the impulse (one conservative bin above).
  const auto phi = QuantizedPmf::impulse(10.0, 64, 1.0);
  const auto result = solve_wcde(phi, Probability(0.9), KlRadius(5.0));
  EXPECT_LT(result.eta_bin, phi.bins());
  EXPECT_LE(result.eta, 12.0 + 1e-9);
  EXPECT_GE(result.eta, 10.0);
}

TEST(Wcde, ConsistencyWithRemFeasibility) {
  // Definition check: at eta_bin-1 the adversary is still feasible (can keep
  // CDF below theta), at eta_bin it is not.
  Rng rng(23);
  for (int trial = 0; trial < 25; ++trial) {
    auto phi = random_pmf(rng, 48, 1.0);
    const double theta = rng.uniform(0.2, 0.9);
    const double delta = rng.uniform(0.01, 1.0);
    const auto result = solve_wcde(phi, Probability(theta), KlRadius(delta));
    if (result.eta_bin == phi.bins()) continue;  // clamped to tau_max
    const auto prefix = phi.prefix_cdf();
    const std::size_t guard = result.eta_bin;  // first guaranteed bin count
    ASSERT_GE(guard, 1u);
    EXPECT_GT(rem_min_kl(Probability(prefix[guard - 1]), Probability(theta)), delta - 1e-12);
    if (guard >= 2) {
      EXPECT_LE(rem_min_kl(Probability(prefix[guard - 2]), Probability(theta)), delta + 1e-12);
    }
  }
}

TEST(Wcde, GaussianReferenceGrowsWithUncertainty) {
  // Same mean, wider stddev -> larger robust demand.
  const auto narrow = QuantizedPmf::gaussian(600.0, 20.0, 256, 5.0);
  const auto wide = QuantizedPmf::gaussian(600.0, 80.0, 256, 5.0);
  const double eta_narrow = solve_wcde(narrow, Probability(0.9), KlRadius(0.7)).eta;
  const double eta_wide = solve_wcde(wide, Probability(0.9), KlRadius(0.7)).eta;
  EXPECT_GT(eta_wide, eta_narrow);
  EXPECT_GT(eta_narrow, 600.0);  // above the mean: robustness costs capacity
}

TEST(Wcde, InputValidation) {
  const auto phi = QuantizedPmf::from_weights({1, 1}, 1.0);
  EXPECT_THROW(solve_wcde(phi, Probability(0.0), KlRadius(0.5)), InvalidInput);
  EXPECT_THROW(solve_wcde(phi, Probability(1.0), KlRadius(0.5)), InvalidInput);
#if defined(RUSH_ENABLE_DCHECK)
  // A negative radius now fails at construction, before solve_wcde runs.
  EXPECT_THROW(KlRadius(-0.1), InternalError);
#else
  EXPECT_THROW(solve_wcde(phi, Probability(0.5), KlRadius(-0.1)), InvalidInput);
#endif
  // An infinite radius is rejected rather than read as "no bound".
  const KlRadius infinite(std::numeric_limits<double>::infinity());
  EXPECT_THROW(solve_wcde(phi, Probability(0.5), infinite), InvalidInput);
}

TEST(Wcde, ScratchOverloadMatchesAllocatingSolve) {
  Rng rng(21);
  WcdeScratch scratch;  // reused: the overload must not depend on stale bits
  for (int trial = 0; trial < 50; ++trial) {
    const std::size_t bins = trial % 2 == 0 ? 64 : 200;
    auto phi = random_pmf(rng, bins, rng.uniform(0.5, 3.0));
    // Raw and pre-normalised masses take different prefix loops.
    if (trial % 4 < 2) phi.normalize();
    const Probability theta(rng.uniform(0.1, 0.95));
    const KlRadius delta(rng.uniform(0.0, 1.5));
    const WcdeResult want = solve_wcde(phi, theta, delta);
    const WcdeResult got = solve_wcde(phi, theta, delta, scratch);
    EXPECT_EQ(got.eta, want.eta);
    EXPECT_EQ(got.eta_bin, want.eta_bin);
    EXPECT_EQ(got.reference_eta, want.reference_eta);
  }
}

// Adversarial property: sample random distributions inside the KL ball and
// confirm none of them needs more than eta at the theta percentile — eta is
// a true worst-case bound.
class WcdeAdversaryTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(WcdeAdversaryTest, NoBallMemberExceedsEta) {
  Rng rng(GetParam());
  auto phi = random_pmf(rng, 32, 1.0);
  const double theta = rng.uniform(0.3, 0.9);
  const double delta = rng.uniform(0.05, 0.8);
  const auto result = solve_wcde(phi, Probability(theta), KlRadius(delta));

  for (int candidate = 0; candidate < 400; ++candidate) {
    // Random perturbation of phi (exponential tilting keeps support equal).
    QuantizedPmf p(phi.bins(), phi.bin_width());
    for (std::size_t l = 0; l < phi.bins(); ++l) {
      p.set_mass(l, phi.mass(l) * std::exp(rng.uniform(-0.8, 0.8)));
    }
    p.normalize();
    if (p.kl_divergence(phi) > delta) continue;  // outside the ball
    EXPECT_LE(p.quantile_value(Probability(theta)), result.eta + 1e-9)
        << "ball member with KL " << p.kl_divergence(phi)
        << " exceeded eta=" << result.eta;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WcdeAdversaryTest,
                         ::testing::Values(2, 5, 19, 37, 61, 83, 101, 131));

}  // namespace
}  // namespace rush
