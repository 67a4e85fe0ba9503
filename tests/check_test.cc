// Tests for the invariant-audit subsystem (src/check).
//
// Two halves: genuine pipeline outputs must pass every audit (including the
// seed-experiment configurations), and deliberately corrupted artefacts must
// be caught and rejected with InternalError via throw_if_failed().

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/check/invariant_auditor.h"
#include "src/check/slot_mapping_reference.h"
#include "src/common/error.h"
#include "src/common/rng.h"
#include "src/experiments/experiment.h"
#include "src/robust/wcde.h"
#include "src/tas/onion_peeling.h"
#include "src/tas/slot_mapping.h"
#include "src/utility/utility_function.h"

namespace rush {
namespace {

// --- AuditReport ----------------------------------------------------------

TEST(AuditReport, CleanReportIsOkAndDoesNotThrow) {
  AuditReport report("Test");
  report.check(true, "a", "unused");
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.checks_performed(), 1u);
  EXPECT_NO_THROW(report.throw_if_failed());
  EXPECT_NE(report.summary().find("ok"), std::string::npos);
}

TEST(AuditReport, ViolationsAreRecordedAndThrown) {
  AuditReport report("Test");
  report.check(false, "bad.check", "value 3 != 4");
  report.check(true, "good.check", "");
  EXPECT_FALSE(report.ok());
  ASSERT_EQ(report.violations().size(), 1u);
  EXPECT_EQ(report.violations()[0].check, "bad.check");
  EXPECT_THROW(report.throw_if_failed(), InternalError);
  EXPECT_NE(report.summary().find("bad.check"), std::string::npos);
}

TEST(AuditReport, MergePrefixesSubject) {
  AuditReport inner("Inner");
  inner.check(false, "x", "detail");
  AuditReport outer("Outer");
  outer.merge(inner);
  ASSERT_EQ(outer.violations().size(), 1u);
  EXPECT_EQ(outer.violations()[0].check, "Inner/x");
}

// --- PMF audits -----------------------------------------------------------

TEST(AuditPmf, NormalizedGaussianPasses) {
  const QuantizedPmf pmf = QuantizedPmf::gaussian(50.0, 10.0, 128, 1.0);
  EXPECT_TRUE(audit_pmf(pmf).ok()) << audit_pmf(pmf).summary();
}

TEST(AuditPmf, UnnormalizedPmfIsCaught) {
  QuantizedPmf pmf(8, 1.0);
  pmf.set_mass(0, 0.5);
  pmf.set_mass(1, 0.3);  // total mass 0.8
  const AuditReport report = audit_pmf(pmf);
  EXPECT_FALSE(report.ok());
  EXPECT_THROW(report.throw_if_failed(), InternalError);
}

// --- WCDE audits ----------------------------------------------------------

TEST(AuditWcde, GenuineSolutionsPassAcrossThetaDeltaGrid) {
  const QuantizedPmf phi = QuantizedPmf::gaussian(60.0, 15.0, 256, 1.0);
  for (double theta : {0.5, 0.9, 0.99}) {
    for (double delta : {0.0, 0.1, 0.7, 1.5}) {
      const WcdeResult result = solve_wcde(phi, Probability(theta), KlRadius(delta));
      const AuditReport report = audit_wcde(phi, Probability(theta), KlRadius(delta), result);
      EXPECT_TRUE(report.ok())
          << "theta=" << theta << " delta=" << delta << "\n" << report.summary();
    }
  }
}

TEST(AuditWcde, UnderestimatedEtaIsCaught) {
  const QuantizedPmf phi = QuantizedPmf::gaussian(60.0, 15.0, 256, 1.0);
  WcdeResult result = solve_wcde(phi, Probability(0.9), KlRadius(0.7));
  ASSERT_GT(result.eta_bin, 8u);
  // Corrupt: claim robustness with 8 bins less than the true answer.
  result.eta_bin -= 8;
  result.eta = phi.upper_edge(result.eta_bin - 1);
  const AuditReport report = audit_wcde(phi, Probability(0.9), KlRadius(0.7), result);
  EXPECT_FALSE(report.ok());
  EXPECT_THROW(report.throw_if_failed(), InternalError);
}

TEST(AuditWcde, OverestimatedEtaFailsMinimality) {
  const QuantizedPmf phi = QuantizedPmf::gaussian(60.0, 15.0, 256, 1.0);
  WcdeResult result = solve_wcde(phi, Probability(0.9), KlRadius(0.7));
  ASSERT_LT(result.eta_bin + 16, phi.bins());
  result.eta_bin += 16;
  result.eta = phi.upper_edge(result.eta_bin - 1);
  const AuditReport report = audit_wcde(phi, Probability(0.9), KlRadius(0.7), result);
  EXPECT_FALSE(report.ok());
}

TEST(AuditWcde, StaleReuseIsCaughtFieldByField) {
  const QuantizedPmf phi = QuantizedPmf::gaussian(60.0, 15.0, 256, 1.0);
  const WcdeResult fresh = solve_wcde(phi, Probability(0.9), KlRadius(0.7));
  EXPECT_TRUE(audit_wcde_reuse(phi, Probability(0.9), KlRadius(0.7), fresh).ok());

  // A result memoised for another radius is robust and minimal there, so
  // only the re-solve can tell it is stale.
  const WcdeResult other = solve_wcde(phi, Probability(0.9), KlRadius(0.3));
  ASSERT_NE(other.eta_bin, fresh.eta_bin);
  const AuditReport report = audit_wcde_reuse(phi, Probability(0.9), KlRadius(0.7), other);
  EXPECT_FALSE(report.ok());
  EXPECT_THROW(report.throw_if_failed(), InternalError);
}

// --- Slot-mapping audits --------------------------------------------------

std::vector<MappingJob> edf_feasible_jobs(int count, ContainerCount capacity,
                                          Seconds now, Rng& rng) {
  // Deadlines spread so the EDF condition holds: cumulative demand at each
  // deadline stays below capacity * (deadline - now).
  std::vector<MappingJob> jobs;
  double cumulative = 0.0;
  for (int i = 0; i < count; ++i) {
    MappingJob job;
    job.id = i;
    job.task_runtime = rng.uniform(0.5, 4.0);
    job.eta = rng.uniform(1.0, 30.0);
    cumulative += job.eta;
    job.deadline =
        now + cumulative / static_cast<double>(capacity) + rng.uniform(1.0, 10.0);
    jobs.push_back(job);
  }
  return jobs;
}

TEST(AuditMapping, GenuineMappingsPassAcrossRandomInstances) {
  Rng rng(7);
  for (int trial = 0; trial < 50; ++trial) {
    const ContainerCount capacity = 1 + static_cast<int>(rng.uniform_int(1, 8));
    const Seconds now = rng.uniform(0.0, 100.0);
    const int count = 1 + static_cast<int>(rng.uniform_int(1, 12));
    const std::vector<MappingJob> jobs = edf_feasible_jobs(count, capacity, now, rng);
    const MappingResult result = map_time_slots(jobs, capacity, now);
    const AuditReport report = audit_mapping(result, jobs, capacity, now);
    EXPECT_TRUE(report.ok()) << "trial " << trial << "\n" << report.summary();
    EXPECT_GT(report.checks_performed(), 0u);
  }
}

TEST(AuditMapping, BestEffortInfeasibleMappingStillPassesWithoutBoundClaim) {
  // One queue, two jobs due "immediately": Theorem 3 cannot hold, the mapper
  // must say so (within_bound = false), and the audit must accept the honest
  // best-effort packing.
  std::vector<MappingJob> jobs(2);
  jobs[0] = {0, 1.0, 50.0, 5.0};
  jobs[1] = {1, 1.0, 50.0, 5.0};
  const MappingResult result = map_time_slots(jobs, 1, 0.0);
  EXPECT_FALSE(result.within_bound);
  const AuditReport report = audit_mapping(result, jobs, 1, 0.0);
  EXPECT_TRUE(report.ok()) << report.summary();
}

TEST(AuditMapping, OverlappingSegmentsAreCaught) {
  Rng rng(11);
  const std::vector<MappingJob> jobs = edf_feasible_jobs(6, 4, 0.0, rng);
  MappingResult result = map_time_slots(jobs, 4, 0.0);
  // Corrupt: shift one segment to overlap its queue predecessor.
  ASSERT_GE(result.segments.size(), 2u);
  auto& segments = result.segments;
  std::sort(segments.begin(), segments.end(),
            [](const MappedSegment& a, const MappedSegment& b) {
              if (a.queue != b.queue) return a.queue < b.queue;
              return a.start < b.start;
            });
  bool corrupted = false;
  for (std::size_t i = 1; i < segments.size(); ++i) {
    if (segments[i].queue == segments[i - 1].queue) {
      segments[i].start -= 0.5 * segments[i - 1].duration;
      corrupted = true;
      break;
    }
  }
  ASSERT_TRUE(corrupted) << "need two segments on one queue to overlap";
  const AuditReport report = audit_mapping(result, jobs, 4, 0.0);
  EXPECT_FALSE(report.ok());
  EXPECT_THROW(report.throw_if_failed(), InternalError);
}

TEST(AuditMapping, DeadlineViolationUnderBoundClaimIsCaught) {
  std::vector<MappingJob> jobs(1);
  jobs[0] = {0, 10.0, 20.0, 2.0};
  MappingResult result = map_time_slots(jobs, 2, 0.0);
  ASSERT_TRUE(result.within_bound);
  // Corrupt: pretend the job finished much later than Theorem 3 allows while
  // keeping the within_bound claim.
  result.completion[0] = jobs[0].deadline + jobs[0].task_runtime + 100.0;
  const AuditReport report = audit_mapping(result, jobs, 2, 0.0);
  EXPECT_FALSE(report.ok());
  bool found_theorem3 = false;
  for (const AuditViolation& v : report.violations()) {
    if (v.check == "mapping.theorem3") found_theorem3 = true;
  }
  EXPECT_TRUE(found_theorem3) << report.summary();
}

TEST(AuditMapping, UnservedDemandIsCaught) {
  Rng rng(13);
  const std::vector<MappingJob> jobs = edf_feasible_jobs(4, 2, 0.0, rng);
  MappingResult result = map_time_slots(jobs, 2, 0.0);
  ASSERT_FALSE(result.segments.empty());
  result.segments.pop_back();  // drop a chunk of served work
  const AuditReport report = audit_mapping(result, jobs, 2, 0.0);
  EXPECT_FALSE(report.ok());
}

TEST(AuditQueueHeads, CensusPassesAndMiscountsAreCaught) {
  Rng rng(17);
  std::vector<MappingJob> jobs = edf_feasible_jobs(8, 4, 0.0, rng);
  QueueCensus census;
  count_queue_heads(jobs, 4, 0.0, census);
  const AuditReport report = audit_queue_heads(jobs, 4, 0.0, census.heads);
  EXPECT_TRUE(report.ok()) << report.summary();
  // One check per job, on top of the merged audit of the reference packing.
  EXPECT_GT(report.checks_performed(), jobs.size());

  // Corrupt: move one head from the job holding it to the next job.
  std::vector<int> wrong = census.heads;
  const auto holder = std::find_if(wrong.begin(), wrong.end(), [](int h) { return h > 0; });
  ASSERT_NE(holder, wrong.end());
  ASSERT_NE(holder + 1, wrong.end());
  *holder -= 1;
  *(holder + 1) += 1;
  const AuditReport moved = audit_queue_heads(jobs, 4, 0.0, wrong);
  EXPECT_FALSE(moved.ok());
  EXPECT_THROW(moved.throw_if_failed(), InternalError);

  wrong.pop_back();
  EXPECT_FALSE(audit_queue_heads(jobs, 4, 0.0, wrong).ok());
}

// --- Onion-peeling audits -------------------------------------------------

TEST(AuditTas, GenuinePeelingsPassAcrossRandomInstances) {
  Rng rng(23);
  for (int trial = 0; trial < 25; ++trial) {
    const ContainerCount capacity = 2 + static_cast<int>(rng.uniform_int(0, 6));
    const Seconds now = rng.uniform(0.0, 50.0);
    const int count = 1 + static_cast<int>(rng.uniform_int(1, 8));

    std::vector<std::unique_ptr<UtilityFunction>> utilities;
    std::vector<TasJob> jobs;
    for (int i = 0; i < count; ++i) {
      utilities.push_back(std::make_unique<LinearUtility>(
          now + rng.uniform(20.0, 200.0), rng.uniform(1.0, 5.0),
          rng.uniform(0.01, 0.2)));
      TasJob job;
      job.id = i;
      job.avg_task_runtime = rng.uniform(0.5, 5.0);
      // Whole-task demand: the Theorem 3 bound assumes eta is a task
      // multiple (see slot_mapping_test), and WCDE etas are bin multiples.
      job.eta = static_cast<double>(rng.uniform_int(0, 12)) * job.avg_task_runtime;
      job.utility = utilities.back().get();
      jobs.push_back(job);
    }

    const TasResult result = onion_peel(jobs, capacity, now);
    const AuditReport report = audit_tas(result, jobs, capacity, now);
    EXPECT_TRUE(report.ok()) << "trial " << trial << "\n" << report.summary();

    // End-to-end: the peeled deadlines must slot-map within the Theorem 3
    // bound, and the mapping must audit clean too.
    std::vector<MappingJob> mapping_jobs;
    for (const TasTarget& target : result.targets) {
      const auto it = std::find_if(jobs.begin(), jobs.end(), [&](const TasJob& j) {
        return j.id == target.id;
      });
      ASSERT_NE(it, jobs.end());
      mapping_jobs.push_back(
          {target.id, target.mapping_deadline, it->eta, it->avg_task_runtime});
    }
    const MappingResult mapping = map_time_slots(mapping_jobs, capacity, now);
    EXPECT_TRUE(mapping.within_bound) << "trial " << trial;
    const AuditReport mapping_report =
        audit_mapping(mapping, mapping_jobs, capacity, now);
    EXPECT_TRUE(mapping_report.ok())
        << "trial " << trial << "\n" << mapping_report.summary();
  }
}

TEST(AuditTas, InfeasibleDeadlinesAreCaught) {
  LinearUtility utility(100.0, 2.0, 0.05);
  std::vector<TasJob> jobs(2);
  jobs[0] = {0, 40.0, 2.0, &utility};
  jobs[1] = {1, 40.0, 2.0, &utility};
  TasResult result = onion_peel(jobs, 2, 0.0);
  ASSERT_FALSE(result.targets.empty());
  // Corrupt: pull every deadline to now + epsilon — 80 container-seconds of
  // demand cannot fit in 2 containers by t = 0.1.
  for (TasTarget& target : result.targets) target.mapping_deadline = 0.1;
  const AuditReport report = audit_tas(result, jobs, 2, 0.0);
  EXPECT_FALSE(report.ok());
  EXPECT_THROW(report.throw_if_failed(), InternalError);
}

TEST(AuditTas, MissingTargetIsCaught) {
  LinearUtility utility(100.0, 2.0, 0.05);
  std::vector<TasJob> jobs(2);
  jobs[0] = {0, 10.0, 2.0, &utility};
  jobs[1] = {1, 10.0, 2.0, &utility};
  TasResult result = onion_peel(jobs, 2, 0.0);
  result.targets.pop_back();
  EXPECT_FALSE(audit_tas(result, jobs, 2, 0.0).ok());
}

// --- Seed experiments pass the auditor ------------------------------------

TEST(AuditExperiments, SeedExperimentOutputsAreSane) {
  ExperimentConfig config;
  config.num_jobs = 8;
  config.mean_interarrival = 40.0;
  config.seed = 99;
  for (const char* name : {"RUSH", "EDF", "FIFO", "RRH", "Fair"}) {
    const RunResult result = run_experiment(name, config);
    EXPECT_TRUE(result.completed) << name;
    EXPECT_EQ(result.jobs.size(), 8u) << name;
    for (const JobRecord& job : result.jobs) {
      EXPECT_GE(job.completion, job.arrival) << name << " job " << job.id;
      EXPECT_LE(job.completion, result.makespan + 1e-9) << name << " job " << job.id;
      EXPECT_GE(job.utility, 0.0) << name << " job " << job.id;
    }
  }
}

}  // namespace
}  // namespace rush
