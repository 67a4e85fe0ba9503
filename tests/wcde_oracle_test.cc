// Independent oracle for WCDE, and the planner's WCDE memo.
//
// Over a KL ball, whether an adversary can keep CDF(L) <= theta depends only
// on the reference CDF at L: the cheapest such distribution costs the
// binary divergence KL_bern(theta || CDF(L)).  So eta is the reference
// quantile at a perturbed level s* >= theta with KL_bern(theta || s*) =
// delta (Hu & Hong 2013, "Kullback-Leibler divergence constrained
// distributionally robust optimization").  The oracle below finds s* by its
// own bisection and builds its own CDF, both in long double; it shares no
// code with src/robust/rem.h.
//
// The planner-level tests then hold every PlanEntry::eta to solve_wcde on
// the job's own inputs — on a cold pass, on a pass that reuses every job's
// result, and after a one-job mutation — and every plan to a fresh
// planner's answer on the same inputs.

#include "src/robust/wcde.h"

#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/core/rush_planner.h"
#include "src/utility/utility_function.h"

namespace rush {
namespace {

// ---- the s* oracle --------------------------------------------------------

/// KL_bern(theta || s), written out directly.
long double binary_kl(long double theta, long double s) {
  return theta * std::log(theta / s) +
         (1.0L - theta) * std::log((1.0L - theta) / (1.0L - s));
}

/// The perturbed level s* in [theta, 1): the largest s with
/// KL_bern(theta || s) <= delta.  The divergence is 0 at s = theta and grows
/// without bound as s -> 1, so bisection converges to adjacent long doubles.
long double perturbed_level(long double theta, long double delta) {
  if (delta == 0.0L) return theta;
  long double lo = theta;
  long double hi = 1.0L;
  for (;;) {
    const long double mid = lo + (hi - lo) / 2.0L;
    if (mid <= lo || mid >= hi) return lo;
    (binary_kl(theta, mid) <= delta ? lo : hi) = mid;
  }
}

/// The reference CDF: normalise, then accumulate in long double.
std::vector<long double> oracle_cdf(const QuantizedPmf& phi) {
  long double total = 0.0L;
  for (std::size_t l = 0; l < phi.bins(); ++l) total += phi.mass(l);
  std::vector<long double> cdf(phi.bins());
  long double sum = 0.0L;
  for (std::size_t l = 0; l < phi.bins(); ++l) {
    sum += phi.mass(l) / total;
    cdf[l] = sum;
  }
  return cdf;
}

/// What solve_wcde must return, and whether rounding may decide it.
struct OracleAnswer {
  /// 1 + the first bin whose CDF exceeds s*, or the bin count if none does.
  std::size_t eta_bin = 0;
  /// The first bin whose CDF reaches theta, or the last bin if none does.
  std::size_t reference_bin = 0;
  /// Some bin's CDF lies within kExemptBand of s* (eta) or of theta
  /// (reference quantile): the oracle's long-double CDF and the solver's
  /// double prefix may then fall on different sides.
  bool eta_exempt = false;
  bool reference_exempt = false;
};

constexpr long double kExemptBand = 1e-12L;

OracleAnswer oracle(const QuantizedPmf& phi, double theta, double delta) {
  const std::vector<long double> cdf = oracle_cdf(phi);
  const long double level = theta;
  const long double s_star = perturbed_level(level, delta);
  OracleAnswer answer;
  answer.eta_bin = cdf.size();
  answer.reference_bin = cdf.size() - 1;
  for (std::size_t l = cdf.size(); l-- > 0;) {
    if (cdf[l] > s_star) answer.eta_bin = l + 1;
    if (cdf[l] >= level) answer.reference_bin = l;
    if (std::fabs(cdf[l] - s_star) <= kExemptBand) answer.eta_exempt = true;
    if (std::fabs(cdf[l] - level) <= kExemptBand) answer.reference_exempt = true;
  }
  return answer;
}

/// Upper edge of bin `l`, computed here rather than read from the PMF.
double upper_edge(const QuantizedPmf& phi, std::size_t l) {
  return phi.bin_width() * static_cast<double>(l + 1);
}

TEST(WcdeOracle, PerturbedLevelSolvesTheBinaryKlEquation) {
  EXPECT_EQ(perturbed_level(0.9L, 0.0L), 0.9L);
  EXPECT_NEAR(static_cast<double>(perturbed_level(0.9L, 0.7L)), 0.999965, 1e-6);
  EXPECT_NEAR(static_cast<double>(perturbed_level(0.9L, 0.3L)), 0.998037, 1e-6);
  EXPECT_NEAR(static_cast<double>(perturbed_level(0.9L, 0.05L)), 0.968722, 1e-6);
  for (const long double theta : {0.05L, 0.5L, 0.9L}) {
    for (const long double delta : {0.05L, 0.3L, 0.7L}) {
      const long double s = perturbed_level(theta, delta);
      EXPECT_GT(s, theta);
      EXPECT_LT(s, 1.0L);
      EXPECT_NEAR(static_cast<double>(binary_kl(theta, s)), static_cast<double>(delta),
                  1e-12);
    }
  }
}

/// 400 reference PMFs with 16–316 bins: Gaussian, impulse and random-weight
/// shapes, half of them normalised and half carrying raw mass (total != 1,
/// so the solver's folded normalisation runs).
std::vector<QuantizedPmf> sweep_pmfs() {
  Rng rng(2013);
  std::vector<QuantizedPmf> pmfs;
  for (int k = 0; k < 400; ++k) {
    const auto bins = static_cast<std::size_t>(rng.uniform_int(16, 316));
    const double width = rng.uniform(0.5, 8.0);
    const double tau = width * static_cast<double>(bins);
    QuantizedPmf phi = [&] {
      switch (k % 3) {
        case 0:
          return QuantizedPmf::gaussian(rng.uniform(0.1, 0.9) * tau,
                                        rng.uniform(0.005, 0.3) * tau, bins, width);
        case 1:
          return QuantizedPmf::impulse(rng.uniform(0.0, tau), bins, width);
        default: {
          // Some empty bins, so the CDF has flat steps.
          std::vector<double> weights(bins);
          for (double& w : weights) w = rng.uniform() < 0.2 ? 0.0 : rng.uniform();
          weights[bins / 2] += 1e-3;  // never all empty
          return QuantizedPmf::from_weights(std::move(weights), width);
        }
      }
    }();
    if ((k / 3) % 2 == 0) {
      const double scale = rng.uniform(0.2, 40.0);
      for (std::size_t l = 0; l < bins; ++l) phi.set_mass(l, phi.mass(l) * scale);
    } else {
      phi.normalize();
    }
    pmfs.push_back(std::move(phi));
  }
  return pmfs;
}

TEST(WcdeOracle, EtaIsTheReferenceQuantileAtThePerturbedLevel) {
  const std::vector<QuantizedPmf> pmfs = sweep_pmfs();
  long solves = 0;
  long exempt = 0;
  long eta_mismatches = 0;
  long reference_mismatches = 0;
  // The region where 1 - s* sits far above double rounding: exemptions
  // there must stay rare, or the oracle would check nothing.
  long core_solves = 0;
  long core_exempt = 0;
  WcdeScratch scratch;
  for (const double theta : {0.05, 0.5, 0.9, 0.95, 0.99}) {
    for (const double delta : {0.0, 0.05, 0.3, 0.7, 1.5, 5.0, 1e9}) {
      const bool core = theta <= 0.9 && delta <= 0.7;
      for (std::size_t p = 0; p < pmfs.size(); ++p) {
        const QuantizedPmf& phi = pmfs[p];
        const WcdeResult got =
            solve_wcde(phi, Probability(theta), KlRadius(delta), scratch);
        const OracleAnswer want = oracle(phi, theta, delta);
        ++solves;
        if (core) ++core_solves;
        if (want.eta_exempt || want.reference_exempt) {
          ++exempt;
          if (core) ++core_exempt;
        }
        const auto label = [&] {
          return "pmf " + std::to_string(p) + " (" + std::to_string(phi.bins()) +
                 " bins) theta " + std::to_string(theta) + " delta " +
                 std::to_string(delta);
        };
        if (!want.eta_exempt &&
            (got.eta_bin != want.eta_bin || got.eta != upper_edge(phi, want.eta_bin - 1))) {
          if (++eta_mismatches <= 5) {
            ADD_FAILURE() << label() << ": eta_bin " << got.eta_bin << " eta " << got.eta
                          << ", oracle eta_bin " << want.eta_bin;
          }
        }
        if (!want.reference_exempt &&
            got.reference_eta != upper_edge(phi, want.reference_bin)) {
          if (++reference_mismatches <= 5) {
            ADD_FAILURE() << label() << ": reference_eta " << got.reference_eta
                          << ", oracle bin " << want.reference_bin;
          }
        }
      }
    }
  }
  std::printf("s* oracle: %ld solves, %ld exempt (%ld of %ld at theta <= 0.9, "
              "delta <= 0.7)\n",
              solves, exempt, core_exempt, core_solves);
  EXPECT_EQ(eta_mismatches, 0);
  EXPECT_EQ(reference_mismatches, 0);
  EXPECT_EQ(core_solves, 4800);
  EXPECT_LE(static_cast<double>(core_exempt), 0.01 * static_cast<double>(core_solves));
}

// ---- planner-level tests -------------------------------------------------

struct Workload {
  std::vector<std::unique_ptr<UtilityFunction>> utilities;
  std::vector<PlannerJob> jobs;
  ContainerCount capacity = 8;
  Seconds now = 0.0;
};

/// Mixed-binning workload: 128- and 256-bin demands, about half of them on
/// a shared bin width per bin count.
Workload random_workload(std::uint64_t seed) {
  Rng rng(seed);
  Workload w;
  w.now = rng.uniform(0.0, 100.0);
  w.capacity = 2 + static_cast<int>(rng.uniform_int(0, 14));
  const int n = 6 + static_cast<int>(rng.uniform_int(0, 18));
  for (JobId i = 0; i < n; ++i) {
    w.utilities.push_back(std::make_unique<LinearUtility>(
        w.now + rng.uniform(10.0, 400.0), rng.uniform(0.5, 5.0),
        rng.uniform(0.01, 0.5)));
    PlannerJob job;
    job.id = i;
    const double mean = rng.uniform(20.0, 2000.0);
    const std::size_t bins = rng.uniform_int(0, 1) == 0 ? 128 : 256;
    const double span = rng.uniform_int(0, 1) == 0 ? mean * 3.5 : 7000.0;
    job.set_demand(QuantizedPmf::gaussian(mean, rng.uniform(0.0, 0.4) * mean, bins,
                                          span / static_cast<double>(bins)));
    job.mean_runtime = rng.uniform(1.0, 60.0);
    job.samples = static_cast<std::size_t>(rng.uniform_int(0, 100));
    job.utility = w.utilities.back().get();
    w.jobs.push_back(std::move(job));
  }
  return w;
}

RushConfig planner_config() {
  RushConfig config;
  config.theta = 0.9;
  config.delta = 0.7;
  config.adaptive_delta = true;  // per-job radii in one pass
  config.audit_invariants = true;
  return config;
}

/// Plans equal field by field with ==.  Probe counts are not compared: a
/// planner's later passes start their peel from the previous pass's hint
/// and spend fewer probes on the same plan.
void expect_plans_identical(const Plan& got, const Plan& want,
                            const std::string& label) {
  EXPECT_EQ(got.computed_at, want.computed_at) << label;
  ASSERT_EQ(got.entries.size(), want.entries.size()) << label;
  for (std::size_t i = 0; i < want.entries.size(); ++i) {
    const PlanEntry& g = got.entries[i];
    const PlanEntry& e = want.entries[i];
    EXPECT_EQ(g.id, e.id) << label;
    EXPECT_EQ(g.eta, e.eta) << label;
    EXPECT_EQ(g.target_completion, e.target_completion) << label;
    EXPECT_EQ(g.utility_level, e.utility_level) << label;
    EXPECT_EQ(g.impossible, e.impossible) << label;
    EXPECT_EQ(g.desired_containers, e.desired_containers) << label;
  }
}

/// The scalar oracle: every entry's eta equals solve_wcde on that job's own
/// inputs, whether the pass reused the job's result or solved it again.
void expect_etas_match_scalar(const Plan& plan, const std::vector<PlannerJob>& jobs,
                              const RushConfig& config, const std::string& label) {
  ASSERT_EQ(plan.entries.size(), jobs.size()) << label;
  for (const PlannerJob& job : jobs) {
    const PlanEntry* entry = plan.find(job.id);
    ASSERT_NE(entry, nullptr) << label << " job " << job.id;
    EXPECT_EQ(entry->eta, solve_wcde(*job.demand, config.theta_level(),
                                     config.delta_for(job.samples))
                              .eta)
        << label << " job " << job.id;
  }
}

/// One pass of `planner`, held to the scalar oracle and to a fresh planner.
void expect_pass_exact(const RushPlanner& planner, const Workload& w,
                       const std::string& label) {
  const Plan got = planner.plan(w.jobs, w.capacity, w.now);
  expect_etas_match_scalar(got, w.jobs, planner.config(), label);
  const RushPlanner fresh(planner.config());
  expect_plans_identical(got, fresh.plan(w.jobs, w.capacity, w.now), label);
}

TEST(PlannerWcdeMemo, EtasMatchTheScalarOracleAcrossReuseAndMutation) {
  for (std::uint64_t seed = 100; seed < 112; ++seed) {
    Workload w = random_workload(seed);
    const RushPlanner planner(planner_config());
    const auto jobs = static_cast<long>(w.jobs.size());
    const std::string label = "seed " + std::to_string(seed);

    // Pass 1 solves every job; pass 2 reuses every job's result.
    expect_pass_exact(planner, w, label + " pass 1");
    PlanStats stats = planner.plan_stats();
    EXPECT_EQ(stats.wcde_cache_hits, 0) << label;
    EXPECT_EQ(stats.wcde_cache_misses, jobs) << label;
    expect_pass_exact(planner, w, label + " pass 2");
    stats = planner.plan_stats();
    EXPECT_EQ(stats.wcde_cache_hits, jobs) << label;
    EXPECT_EQ(stats.wcde_cache_misses, jobs) << label;

    // A new snapshot for one job — the stale-set shape of a container
    // event: only that job is solved again.
    Rng rng(seed + 1);
    const double mean = rng.uniform(20.0, 2000.0);
    w.jobs[0].set_demand(QuantizedPmf::gaussian(
        mean, 0.2 * mean, w.jobs[0].demand->bins(),
        mean * 3.5 / static_cast<double>(w.jobs[0].demand->bins())));
    expect_pass_exact(planner, w, label + " after mutation");
    stats = planner.plan_stats();
    EXPECT_EQ(stats.wcde_cache_hits, 2 * jobs - 1) << label;
    EXPECT_EQ(stats.wcde_cache_misses, jobs + 1) << label;
  }
}

TEST(PlannerWcdeMemo, DuplicateDemandsPlanLikeDistinctCopies) {
  Workload w;
  w.capacity = 4;
  auto utility = std::make_unique<ConstantUtility>(2.0);
  QuantizedPmf shared = QuantizedPmf::gaussian(300.0, 60.0, 256, 300.0 * 3.5 / 256.0);
  PlannerJob prototype;
  prototype.set_demand(std::move(shared));
  for (JobId i = 0; i < 6; ++i) {
    PlannerJob job;
    job.id = i;
    if (i < 4) {
      job.demand = prototype.demand;  // four jobs share one snapshot
    } else {
      const double mean = 100.0 + 50.0 * static_cast<double>(i);
      job.set_demand(QuantizedPmf::gaussian(mean, 0.1 * mean, 256,
                                            mean * 3.5 / 256.0));
    }
    job.mean_runtime = 10.0;
    job.samples = 50;
    job.utility = utility.get();
    w.jobs.push_back(std::move(job));
  }
  w.utilities.push_back(std::move(utility));

  RushConfig config = planner_config();
  config.adaptive_delta = false;  // one radius, so duplicates share a triple
  const RushPlanner planner(config);
  const Plan got = planner.plan(w.jobs, w.capacity, w.now);
  expect_etas_match_scalar(got, w.jobs, config, "shared");

  // The same jobs, each holding its own copy of the PMF.
  Workload copies;
  copies.capacity = w.capacity;
  copies.jobs = w.jobs;
  for (PlannerJob& job : copies.jobs) job.set_demand(QuantizedPmf(*job.demand));
  const RushPlanner reference(config);
  expect_plans_identical(got, reference.plan(copies.jobs, copies.capacity, copies.now),
                         "shared vs copies");
}

}  // namespace
}  // namespace rush
