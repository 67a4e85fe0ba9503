#include "src/tas/onion_peeling.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <gtest/gtest.h>

#include "src/common/error.h"
#include "src/common/rng.h"
#include "tests/ksection_oracle.h"

namespace rush {
namespace {

// EDF feasibility of the produced targets: for every target deadline d, the
// demand of jobs with deadline <= d must fit in capacity * (d - now).
bool targets_feasible(const std::vector<TasJob>& jobs, const TasResult& result,
                      ContainerCount capacity, Seconds now) {
  std::vector<std::pair<Seconds, double>> work;
  for (const TasTarget& t : result.targets) {
    const auto it = std::find_if(jobs.begin(), jobs.end(),
                                 [&](const TasJob& j) { return j.id == t.id; });
    if (it == jobs.end() || it->eta <= 0.0) continue;
    work.emplace_back(t.mapping_deadline, it->eta);
  }
  std::sort(work.begin(), work.end());
  double load = 0.0;
  for (std::size_t i = 0; i < work.size(); ++i) {
    load += work[i].second;
    const bool boundary = i + 1 == work.size() || work[i + 1].first > work[i].first;
    if (boundary && load > capacity * (work[i].first - now) + 1e-6) return false;
  }
  return true;
}

TEST(OnionPeeling, SingleJobGetsItsBestDeadline) {
  const LinearUtility utility(100.0, 5.0, 0.1);
  std::vector<TasJob> jobs = {{0, 200.0, 10.0, &utility}};
  const auto result = onion_peel(jobs, 10, 0.0);
  ASSERT_EQ(result.targets.size(), 1u);
  // 200 container-seconds on 10 containers need 20 seconds; plus the R_i
  // compensation the job finishes around 30s, far before its budget, so its
  // utility level should be near the maximum achievable.
  const TasTarget& t = result.targets[0];
  EXPECT_GT(t.utility_level, utility.value(35.0) - 0.1);
  EXPECT_FALSE(t.impossible);
  EXPECT_TRUE(targets_feasible(jobs, result, 10, 0.0));
}

TEST(OnionPeeling, CapacityIsRespectedAcrossJobs) {
  const LinearUtility u1(50.0, 5.0, 0.1);
  const LinearUtility u2(50.0, 5.0, 0.1);
  const LinearUtility u3(50.0, 5.0, 0.1);
  std::vector<TasJob> jobs = {
      {0, 300.0, 5.0, &u1}, {1, 300.0, 5.0, &u2}, {2, 300.0, 5.0, &u3}};
  const auto result = onion_peel(jobs, 6, 0.0);
  ASSERT_EQ(result.targets.size(), 3u);
  EXPECT_TRUE(targets_feasible(jobs, result, 6, 0.0));
}

TEST(OnionPeeling, ZeroDemandJobsPeelImmediately) {
  const ConstantUtility u(3.0);
  std::vector<TasJob> jobs = {{7, 0.0, 5.0, &u}};
  const auto result = onion_peel(jobs, 4, 123.0);
  ASSERT_EQ(result.targets.size(), 1u);
  EXPECT_EQ(result.targets[0].id, 7);
  EXPECT_DOUBLE_EQ(result.targets[0].target_completion, 123.0);
  EXPECT_DOUBLE_EQ(result.targets[0].utility_level, 3.0);
}

TEST(OnionPeeling, InsensitiveJobYieldsToTightDeadlineJob) {
  // One sigmoid job with a tight budget and one constant-utility job of the
  // same size: the constant job should be pushed later (its utility cannot
  // drop), letting the sigmoid job meet its budget.
  const SigmoidUtility tight(60.0, 5.0, 0.5);
  const ConstantUtility flat(5.0);
  std::vector<TasJob> jobs = {{0, 400.0, 10.0, &tight}, {1, 400.0, 10.0, &flat}};
  const auto result = onion_peel(jobs, 10, 0.0);
  ASSERT_EQ(result.targets.size(), 2u);
  const auto* t0 = &result.targets[0];
  const auto* t1 = &result.targets[1];
  if (t0->id != 0) std::swap(t0, t1);
  // Sigmoid job completes by its 60 s budget (+/- R_i slack); the flat job
  // finishes later but keeps utility 5.
  EXPECT_LE(t0->target_completion, 75.0);
  EXPECT_GT(t1->target_completion, t0->target_completion);
  EXPECT_DOUBLE_EQ(t1->utility_level, 5.0);
  EXPECT_TRUE(targets_feasible(jobs, result, 10, 0.0));
}

TEST(OnionPeeling, OverloadMarksImpossibleJobs) {
  // Demand far beyond what fits in any useful deadline: the step utility
  // job cannot achieve positive utility.
  const StepUtility u(10.0, 4.0);
  std::vector<TasJob> jobs = {{0, 1e4, 5.0, &u}};
  const auto result = onion_peel(jobs, 1, 0.0);
  ASSERT_EQ(result.targets.size(), 1u);
  EXPECT_TRUE(result.targets[0].impossible);
  EXPECT_NEAR(result.targets[0].utility_level, 0.0, 1e-6);
}

TEST(OnionPeeling, MaxMinBeatsAnyUniformLevelAboveIt) {
  // The first layer solves max-min: no feasible schedule can give *every*
  // job a strictly higher utility than the first layer's level.
  Rng rng(31);
  std::vector<std::unique_ptr<UtilityFunction>> utilities;
  std::vector<TasJob> jobs;
  for (JobId i = 0; i < 5; ++i) {
    utilities.push_back(std::make_unique<LinearUtility>(
        rng.uniform(50.0, 200.0), rng.uniform(1.0, 5.0), rng.uniform(0.01, 0.2)));
    jobs.push_back({i, rng.uniform(100.0, 500.0), 10.0, utilities.back().get()});
  }
  const ContainerCount capacity = 8;
  const auto result = onion_peel(jobs, capacity, 0.0);
  const double min_level =
      std::min_element(result.targets.begin(), result.targets.end(),
                       [](const TasTarget& a, const TasTarget& b) {
                         return a.utility_level < b.utility_level;
                       })
          ->utility_level;

  // Probe: try to schedule every job at level min_level + margin; must fail
  // the EDF test (otherwise onion peeling missed achievable utility).
  const double margin = 0.5;
  std::vector<std::pair<Seconds, double>> work;
  bool reachable = true;
  for (const TasJob& j : jobs) {
    const Seconds d = j.utility->inverse(min_level + margin, result.horizon) -
                      j.avg_task_runtime;
    if (!std::isfinite(d) || d < 0.0) {
      reachable = false;
      break;
    }
    work.emplace_back(d, j.eta);
  }
  if (reachable) {
    std::sort(work.begin(), work.end());
    double load = 0.0;
    bool feasible = true;
    for (std::size_t i = 0; i < work.size(); ++i) {
      load += work[i].second;
      const bool boundary = i + 1 == work.size() || work[i + 1].first > work[i].first;
      if (boundary && load > capacity * work[i].first + 1e-6) {
        feasible = false;
        break;
      }
    }
    EXPECT_FALSE(feasible) << "all jobs could reach level " << min_level + margin
                           << " but onion peeling stopped at " << min_level;
  }
}

TEST(OnionPeeling, LayersAreMonotoneInUtility) {
  Rng rng(47);
  std::vector<std::unique_ptr<UtilityFunction>> utilities;
  std::vector<TasJob> jobs;
  for (JobId i = 0; i < 8; ++i) {
    utilities.push_back(std::make_unique<SigmoidUtility>(
        rng.uniform(100.0, 400.0), rng.uniform(1.0, 6.0), rng.uniform(0.02, 0.2)));
    jobs.push_back({i, rng.uniform(200.0, 1500.0), 15.0, utilities.back().get()});
  }
  const auto result = onion_peel(jobs, 12, 0.0);
  ASSERT_EQ(result.targets.size(), jobs.size());
  // Peel order is worst-off first: utility levels are non-decreasing in
  // layer order (within tolerance of the bisection).
  for (std::size_t i = 1; i < result.targets.size(); ++i) {
    EXPECT_GE(result.targets[i].utility_level,
              result.targets[i - 1].utility_level - 1e-2);
  }
  EXPECT_TRUE(targets_feasible(jobs, result, 12, 0.0));
}

TEST(OnionPeeling, MoreCapacityNeverHurtsTheWorstJob) {
  Rng rng(53);
  std::vector<std::unique_ptr<UtilityFunction>> utilities;
  std::vector<TasJob> jobs;
  for (JobId i = 0; i < 6; ++i) {
    utilities.push_back(std::make_unique<LinearUtility>(
        rng.uniform(100.0, 300.0), 4.0, 0.05));
    jobs.push_back({i, rng.uniform(300.0, 900.0), 10.0, utilities.back().get()});
  }
  double prev_min = -1.0;
  for (ContainerCount c : {2, 4, 8, 16, 32}) {
    const auto result = onion_peel(jobs, c, 0.0);
    const double min_level =
        std::min_element(result.targets.begin(), result.targets.end(),
                         [](const TasTarget& a, const TasTarget& b) {
                           return a.utility_level < b.utility_level;
                         })
            ->utility_level;
    EXPECT_GE(min_level, prev_min - 1e-2) << "capacity " << c;
    prev_min = min_level;
  }
}

// Brute-force lexicographic max-min cross-check: enumerate every
// combination of candidate completion times on a coarse grid, keep the
// EDF-feasible ones, and find the lexicographically maximal sorted utility
// vector.  Onion peeling (continuous, no grid) must do at least as well up
// to the grid resolution.
class LexOptimalityTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LexOptimalityTest, MatchesBruteForceOnSmallInstances) {
  Rng rng(GetParam());
  const int n = 3;
  const ContainerCount capacity = 2;
  std::vector<std::unique_ptr<UtilityFunction>> utilities;
  std::vector<TasJob> jobs;
  for (JobId i = 0; i < n; ++i) {
    utilities.push_back(std::make_unique<LinearUtility>(
        rng.uniform(20.0, 80.0), rng.uniform(1.0, 4.0), rng.uniform(0.05, 0.3)));
    // Tiny avg_task_runtime so the R_i compensation is negligible and the
    // comparison isolates the peeling itself.
    jobs.push_back({i, rng.uniform(10.0, 60.0), 1e-3, utilities.back().get()});
  }

  OnionPeelingConfig config;
  config.tolerance = 1e-4;
  const auto result = onion_peel(jobs, capacity, 0.0, config);

  std::vector<double> peeled_levels;
  for (const TasTarget& t : result.targets) peeled_levels.push_back(t.utility_level);
  std::sort(peeled_levels.begin(), peeled_levels.end());

  // Brute force over a completion-time grid.
  const double horizon = result.horizon;
  const int grid = 24;
  std::vector<double> times(grid);
  for (int g = 0; g < grid; ++g) {
    times[static_cast<std::size_t>(g)] = horizon * (g + 1) / grid;
  }
  std::vector<double> best;  // sorted utility vector, lexicographically max
  for (int a = 0; a < grid; ++a) {
    for (int b = 0; b < grid; ++b) {
      for (int c = 0; c < grid; ++c) {
        const double t[3] = {times[a], times[b], times[c]};
        // EDF feasibility of these completion times.
        std::vector<std::pair<double, double>> work;
        for (int i = 0; i < n; ++i) work.emplace_back(t[i], jobs[i].eta);
        std::sort(work.begin(), work.end());
        double load = 0.0;
        bool feasible = true;
        for (std::size_t i = 0; i < work.size(); ++i) {
          load += work[i].second;
          const bool boundary =
              i + 1 == work.size() || work[i + 1].first > work[i].first;
          if (boundary && load > capacity * work[i].first + 1e-9) {
            feasible = false;
            break;
          }
        }
        if (!feasible) continue;
        std::vector<double> levels;
        for (int i = 0; i < n; ++i) {
          levels.push_back(jobs[static_cast<std::size_t>(i)].utility->value(t[i]));
        }
        std::sort(levels.begin(), levels.end());
        if (best.empty() ||
            std::lexicographical_compare(best.begin(), best.end(), levels.begin(),
                                         levels.end())) {
          best = levels;
        }
      }
    }
  }
  ASSERT_FALSE(best.empty());

  // Grid coarseness bound: moving one grid step changes a linear utility by
  // at most beta * horizon/grid; allow that slack per element.
  for (int i = 0; i < n; ++i) {
    double max_beta = 0.0;
    for (const auto& u : utilities) {
      max_beta = std::max(max_beta, static_cast<const LinearUtility&>(*u).beta());
    }
    const double slack = max_beta * horizon / grid + 1e-3;
    EXPECT_GE(peeled_levels[static_cast<std::size_t>(i)],
              best[static_cast<std::size_t>(i)] - slack)
        << "element " << i << " of the sorted utility vector";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LexOptimalityTest,
                         ::testing::Values(101, 202, 303, 404, 505, 606));

// ---------- the production peel against the all-probe k-section ----------

void expect_same_targets(const TasResult& got, const TasResult& want,
                         const std::string& label) {
  ASSERT_EQ(got.targets.size(), want.targets.size()) << label;
  for (std::size_t i = 0; i < want.targets.size(); ++i) {
    const TasTarget& g = got.targets[i];
    const TasTarget& e = want.targets[i];
    EXPECT_EQ(g.id, e.id) << label << " target " << i;
    EXPECT_EQ(g.mapping_deadline, e.mapping_deadline) << label << " target " << i;
    EXPECT_EQ(g.target_completion, e.target_completion) << label << " target " << i;
    EXPECT_EQ(g.utility_level, e.utility_level) << label << " target " << i;
    EXPECT_EQ(g.layer, e.layer) << label << " target " << i;
    EXPECT_EQ(g.impossible, e.impossible) << label << " target " << i;
  }
  EXPECT_EQ(got.horizon, want.horizon) << label;
}

/// True when some peeled layer of `result` opened with a degenerate cap:
/// the smallest U(now) among the jobs still to peel sat within tolerance
/// of the level the previous layer established.
bool has_degenerate_cap(const std::vector<TasJob>& jobs, const TasResult& result,
                        Seconds now, double tolerance) {
  std::vector<const TasJob*> left;
  for (const TasJob& j : jobs) {
    if (j.eta > 0.0) left.push_back(&j);
  }
  Utility level = 0.0;
  for (const TasTarget& t : result.targets) {
    const auto it = std::find_if(left.begin(), left.end(),
                                 [&](const TasJob* j) { return j->id == t.id; });
    if (it == left.end()) continue;  // zero demand: no layer search
    Utility cap = std::numeric_limits<Utility>::infinity();
    for (const TasJob* j : left) cap = std::min(cap, j->utility->value(now));
    if (cap <= level + tolerance * std::max(cap, 1e-3)) return true;
    level = t.utility_level;
    left.erase(it);
  }
  return false;
}

TEST(OnionPeeling, MatchesAllProbeKSectionWithAndWithoutHint) {
  Rng rng(20261017);
  const double tolerances[] = {1e-2, 1e-3, 1e-4};
  // Shared priorities make equal caps, and so degenerate caps, common.
  const double priorities[] = {1.0, 2.5, 4.0};
  int degenerate = 0;
  long warm_layers = 0;
  for (int instance = 0; instance < 120; ++instance) {
    const ContainerCount capacity = 1 + static_cast<int>(rng.uniform_int(0, 15));
    const Seconds now = rng.uniform(0.0, 400.0);
    const double tolerance = tolerances[instance % 3];
    const int n = 1 + static_cast<int>(rng.uniform_int(0, 11));
    std::vector<std::unique_ptr<UtilityFunction>> utilities;
    std::vector<TasJob> jobs;
    for (JobId id = 0; id < n; ++id) {
      const Seconds budget = std::max(1.0, now + rng.uniform(-100.0, 600.0));
      const double priority = priorities[rng.uniform_int(0, 2)];
      switch (rng.uniform_int(0, 3)) {
        case 0:
          utilities.push_back(
              std::make_unique<LinearUtility>(budget, priority, rng.uniform(0.005, 0.3)));
          break;
        case 1:
          utilities.push_back(
              std::make_unique<SigmoidUtility>(budget, priority, rng.uniform(0.01, 0.5)));
          break;
        case 2:
          utilities.push_back(std::make_unique<ConstantUtility>(priority));
          break;
        default:
          utilities.push_back(std::make_unique<StepUtility>(budget, priority));
          break;
      }
      const ContainerSeconds eta = rng.uniform(0.0, 1.0) < 0.15 ? 0.0 : rng.uniform(5.0, 2000.0);
      jobs.push_back({id, eta, rng.uniform(0.5, 40.0), utilities.back().get()});
    }
    const std::string label = "instance " + std::to_string(instance);

    const TasResult oracle = ksection_peel(jobs, capacity, now, tolerance);
    if (has_degenerate_cap(jobs, oracle, now, tolerance)) ++degenerate;
    OnionPeelingConfig config;
    config.tolerance = tolerance;
    const TasResult hintless = onion_peel(jobs, capacity, now, config);
    expect_same_targets(hintless, oracle, label + " hint-less");
    EXPECT_LE(hintless.probes, oracle.probes) << label;

    // A hint from a drifted copy: demand and time moved since it was peeled.
    std::vector<TasJob> drifted = jobs;
    for (TasJob& j : drifted) {
      if (j.eta > 0.0) j.eta *= rng.uniform(0.8, 1.2);
    }
    const TasResult previous =
        onion_peel(drifted, capacity, std::max(0.0, now - rng.uniform(0.0, 20.0)), config);
    config.warm_hint = &previous.hint;
    const TasResult hinted = onion_peel(jobs, capacity, now, config);
    expect_same_targets(hinted, oracle, label + " hinted");
    warm_layers += hinted.warm_layers;
  }
  EXPECT_GT(degenerate, 0) << "no instance exercised a degenerate cap";
  EXPECT_GT(warm_layers, 0) << "no hint reached the root finder";
}

TEST(OnionPeeling, InputValidation) {
  const ConstantUtility u(1.0);
  std::vector<TasJob> jobs = {{0, 10.0, 1.0, &u}};
  EXPECT_THROW(onion_peel(jobs, 0, 0.0), InvalidInput);
  OnionPeelingConfig bad;
  bad.tolerance = 0.0;
  EXPECT_THROW(onion_peel(jobs, 1, 0.0, bad), InvalidInput);
  std::vector<TasJob> no_utility = {{0, 10.0, 1.0, nullptr}};
  EXPECT_THROW(onion_peel(no_utility, 1, 0.0), InvalidInput);
  std::vector<TasJob> bad_runtime = {{0, 10.0, 0.0, &u}};
  EXPECT_THROW(onion_peel(bad_runtime, 1, 0.0), InvalidInput);
}

TEST(OnionPeeling, StartsAfterNow) {
  // Targets must lie at or after `now` even for hopeless budgets.
  const SigmoidUtility u(5.0, 3.0, 1.0);  // budget long past
  std::vector<TasJob> jobs = {{0, 50.0, 2.0, &u}};
  const auto result = onion_peel(jobs, 2, 1000.0);
  ASSERT_EQ(result.targets.size(), 1u);
  EXPECT_GE(result.targets[0].target_completion, 1000.0);
}

}  // namespace
}  // namespace rush
