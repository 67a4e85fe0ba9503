// Differential tests for the batched WCDE engine (DESIGN.md §5i).
//
// The contract under test is bit-identity, not closeness: solve_wcde_batch
// must reproduce solve_wcde's eta, eta_bin, reference_eta and truncated with
// ==, across randomized workloads, batch sizes, mixed truncated/feasible
// rows and arena reuse.  The planner-level tests then hold every
// PlanEntry::eta to solve_wcde as an oracle — on a cold pass, on a pass that
// reuses every job's result, and after a one-job mutation — and every plan
// to a fresh planner's answer on the same inputs.

#include "src/robust/wcde_batch.h"

#include <memory>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/core/rush_planner.h"
#include "src/robust/wcde.h"
#include "src/stats/pmf_arena.h"
#include "src/utility/utility_function.h"

namespace rush {
namespace {

QuantizedPmf random_pmf(Rng& rng, std::size_t bins, double width) {
  std::vector<double> w(bins);
  for (auto& x : w) x = rng.uniform() + 1e-3;
  QuantizedPmf pmf = QuantizedPmf::from_weights(std::move(w), width);
  // Mix raw-mass and pre-normalised PMFs: the kernel folds normalisation
  // into the arena sweep and must match the scalar path on both.
  if (rng.uniform() < 0.5) pmf.normalize();
  return pmf;
}

/// An impulse in the very last bin: every prefix below `last` is exactly 0,
/// so the bisection drives lo to last - 1 — a guaranteed-truncated row.
QuantizedPmf last_bin_impulse(std::size_t bins, double width) {
  return QuantizedPmf::impulse(width * (static_cast<double>(bins) - 0.5), bins,
                               width);
}

void expect_rows_match_scalar(const std::vector<QuantizedPmf>& phis,
                              Probability theta,
                              const std::vector<KlRadius>& deltas,
                              const std::vector<WcdeResult>& batched,
                              const std::string& label) {
  ASSERT_EQ(batched.size(), phis.size()) << label;
  for (std::size_t r = 0; r < phis.size(); ++r) {
    const WcdeResult want = solve_wcde(phis[r], theta, deltas[r]);
    EXPECT_EQ(batched[r].eta, want.eta) << label << " row " << r;
    EXPECT_EQ(batched[r].eta_bin, want.eta_bin) << label << " row " << r;
    EXPECT_EQ(batched[r].reference_eta, want.reference_eta)
        << label << " row " << r;
    EXPECT_EQ(batched[r].truncated, want.truncated) << label << " row " << r;
  }
}

TEST(WcdeBatch, MatchesScalarBitForBitAcrossSeedsAndSizes) {
  WcdeBatchScratch scratch;  // reused across every batch on purpose
  for (std::uint64_t seed = 0; seed < 50; ++seed) {
    Rng rng(seed);
    const std::size_t bins = seed % 2 == 0 ? 128 : 96;
    const double width = rng.uniform(0.5, 4.0);
    const Probability theta(rng.uniform(0.05, 0.99));
    for (const std::size_t size : {1u, 2u, 7u, 33u, 64u}) {
      std::vector<QuantizedPmf> phis;
      std::vector<KlRadius> deltas;
      for (std::size_t r = 0; r < size; ++r) {
        if (r == 1) {
          phis.push_back(last_bin_impulse(bins, width));  // truncated row
        } else {
          phis.push_back(random_pmf(rng, bins, width));
        }
        // Mix the regimes: exact quantile (0), typical radii, and a huge
        // (but finite) ball that truncates most supports.
        switch (rng.uniform_int(0, 3)) {
          case 0: deltas.push_back(KlRadius(0.0)); break;
          case 1: deltas.push_back(KlRadius(rng.uniform(0.0, 1.2))); break;
          case 2: deltas.push_back(KlRadius(5.0)); break;
          default: deltas.push_back(KlRadius(1e9));
        }
      }
      std::vector<const QuantizedPmf*> views;
      for (const QuantizedPmf& phi : phis) views.push_back(&phi);
      std::vector<WcdeResult> out(size);
      solve_wcde_batch(views, theta, deltas, out, scratch);
      expect_rows_match_scalar(phis, theta, deltas, out,
                               "seed " + std::to_string(seed) + " size " +
                                   std::to_string(size));
    }
  }
}

TEST(WcdeBatch, MixedConvergenceDepthsHoldEarlyRows) {
  // Impulses at spread-out bins make the per-row bisections converge after
  // very different iteration counts; the masked lockstep must hold each
  // finished row's state untouched while the stragglers keep probing.
  const std::size_t bins = 256;
  const double width = 1.5;
  std::vector<QuantizedPmf> phis;
  for (const std::size_t at : {std::size_t{0}, std::size_t{1}, bins / 2,
                               bins - 2, bins - 1}) {
    phis.push_back(QuantizedPmf::impulse(
        width * (static_cast<double>(at) + 0.5), bins, width));
  }
  Rng rng(7);
  for (int extra = 0; extra < 11; ++extra) {
    phis.push_back(random_pmf(rng, bins, width));
  }
  std::vector<KlRadius> deltas;
  for (std::size_t r = 0; r < phis.size(); ++r) {
    deltas.push_back(KlRadius(r % 3 == 0 ? 0.0 : rng.uniform(0.0, 2.0)));
  }
  std::vector<const QuantizedPmf*> views;
  for (const QuantizedPmf& phi : phis) views.push_back(&phi);
  std::vector<WcdeResult> out(phis.size());
  WcdeBatchScratch scratch;
  solve_wcde_batch(views, Probability(0.9), deltas, out, scratch);
  expect_rows_match_scalar(phis, Probability(0.9), deltas, out, "impulse mix");
}

TEST(WcdeBatch, ScratchOverloadMatchesAllocatingSolve) {
  Rng rng(21);
  WcdeScratch scratch;  // reused: the overload must not depend on stale bits
  for (int trial = 0; trial < 50; ++trial) {
    const std::size_t bins = trial % 2 == 0 ? 64 : 200;
    const auto phi = random_pmf(rng, bins, rng.uniform(0.5, 3.0));
    const Probability theta(rng.uniform(0.1, 0.95));
    const KlRadius delta(rng.uniform(0.0, 1.5));
    const WcdeResult want = solve_wcde(phi, theta, delta);
    const WcdeResult got = solve_wcde(phi, theta, delta, scratch);
    EXPECT_EQ(got.eta, want.eta);
    EXPECT_EQ(got.eta_bin, want.eta_bin);
    EXPECT_EQ(got.reference_eta, want.reference_eta);
    EXPECT_EQ(got.truncated, want.truncated);
  }
}

TEST(PmfArena, PlanesReproduceScalarNormalizeAndPrefixBits) {
  Rng rng(33);
  const std::size_t bins = 128;
  const double width = 2.0;
  const std::size_t rows = 7;
  PmfArena arena;
  std::vector<QuantizedPmf> phis;
  for (std::size_t r = 0; r < rows; ++r) phis.push_back(random_pmf(rng, bins, width));
  arena.reset(rows, bins, width);
  for (std::size_t r = 0; r < rows; ++r) arena.load_row(r, phis[r]);
  arena.finalize();
  for (std::size_t r = 0; r < rows; ++r) {
    QuantizedPmf reference = phis[r];
    reference.normalize();
    const std::vector<double> prefix = reference.prefix_cdf();
    const PmfRowView view = arena.row(r);
    ASSERT_EQ(view.bins, bins);
    for (std::size_t l = 0; l < bins; ++l) {
      // Bit-exact, not close: the batched bisection reads these planes and
      // must see the very bits the scalar solver derives.
      EXPECT_EQ(arena.mass_at(l, r), reference.mass(l)) << "row " << r;
      EXPECT_EQ(arena.prefix_at(l, r), prefix[l]) << "row " << r;
      EXPECT_EQ(view.mass(l), reference.mass(l)) << "row " << r;
      EXPECT_EQ(view.prefix(l), prefix[l]) << "row " << r;
      EXPECT_EQ(view.upper_edge(l), phis[r].upper_edge(l)) << "row " << r;
    }
  }
}

TEST(PmfArena, RowsDoNotAliasAndResetReusesAllocations) {
  Rng rng(44);
  const double width = 1.0;
  PmfArena arena;
  // Two identical outer rows around a different middle row: the strided
  // planes must keep each row's bits independent of its neighbours.
  const QuantizedPmf a = random_pmf(rng, 64, width);
  const QuantizedPmf b = random_pmf(rng, 64, width);
  arena.reset(3, 64, width);
  arena.load_row(0, a);
  arena.load_row(1, b);
  arena.load_row(2, a);
  arena.finalize();
  for (std::size_t l = 0; l < 64; ++l) {
    EXPECT_EQ(arena.mass_at(l, 0), arena.mass_at(l, 2));
    EXPECT_EQ(arena.prefix_at(l, 0), arena.prefix_at(l, 2));
  }
  // Shrinking reset reuses the planes; stale bits from the larger batch
  // must not leak into the smaller one.
  QuantizedPmf c = random_pmf(rng, 16, width);
  QuantizedPmf reference = c;
  reference.normalize();
  const std::vector<double> prefix = reference.prefix_cdf();
  arena.reset(1, 16, width);
  arena.load_row(0, c);
  arena.finalize();
  for (std::size_t l = 0; l < 16; ++l) {
    EXPECT_EQ(arena.mass_at(l, 0), reference.mass(l));
    EXPECT_EQ(arena.prefix_at(l, 0), prefix[l]);
  }
}

// ---- planner-level tests -------------------------------------------------

struct Workload {
  std::vector<std::unique_ptr<UtilityFunction>> utilities;
  std::vector<PlannerJob> jobs;
  ContainerCount capacity = 8;
  Seconds now = 0.0;
};

/// Mixed-binning workload: 128- and 256-bin demands, about half of them on
/// a shared bin width per bin count, so one pass spans multi-row arena
/// groups and scalar singletons.
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
  config.adaptive_delta = true;  // per-job radii in one batch
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
/// inputs, whichever route — memo reuse, batch row, scalar singleton — the
/// pass took.
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

TEST(PlannerWcdeBatch, EtasMatchTheScalarOracleAcrossReuseAndMutation) {
  long batch_groups = 0;
  long scalar_solves = 0;
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
    // Every solve went through the batch kernel or its scalar singleton.
    EXPECT_EQ(stats.wcde_batch_rows + stats.wcde_scalar_solves, stats.wcde_cache_misses)
        << label;
    batch_groups += stats.wcde_batch_groups;
    scalar_solves += stats.wcde_scalar_solves;
  }
  // The seeds exercise both routes.
  EXPECT_GT(batch_groups, 0);
  EXPECT_GT(scalar_solves, 0);
}

TEST(PlannerWcdeBatch, DuplicateDemandsPlanLikeDistinctCopies) {
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
