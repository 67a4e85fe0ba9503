// Algorithm 4's reference packing (src/check) and the planner's
// head-of-queue census (src/tas), which must give every job the queue heads
// of that packing.

#include "src/check/slot_mapping_reference.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <ostream>
#include <string>
#include <tuple>
#include <gtest/gtest.h>

#include "src/common/error.h"
#include "src/common/rng.h"
#include "src/tas/slot_mapping.h"

namespace rush {
namespace {

// No two segments on the same queue may overlap in time.
void expect_no_overlap(const MappingResult& result) {
  std::map<QueueId, std::vector<std::pair<Seconds, Seconds>>> by_queue;
  for (const MappedSegment& s : result.segments) {
    by_queue[s.queue].emplace_back(s.start, s.end());
  }
  for (auto& [queue, spans] : by_queue) {
    std::sort(spans.begin(), spans.end());
    for (std::size_t i = 1; i < spans.size(); ++i) {
      EXPECT_GE(spans[i].first, spans[i - 1].second - 1e-9)
          << "overlap on queue " << queue.value();
    }
  }
}

// Every job's demand is served: sum of segment durations covers eta
// (rounded up to whole tasks).
void expect_conservation(const std::vector<MappingJob>& jobs,
                         const MappingResult& result) {
  std::map<JobId, double> served;
  std::map<JobId, int> tasks;
  for (const MappedSegment& s : result.segments) {
    served[s.job] += s.duration;
    tasks[s.job] += s.tasks;
  }
  for (const MappingJob& j : jobs) {
    if (j.eta <= 0.0) continue;
    const auto expected_tasks =
        static_cast<long>(std::ceil(j.eta / j.task_runtime - 1e-9));
    EXPECT_EQ(tasks[j.id], expected_tasks) << "job " << j.id;
    EXPECT_NEAR(served[j.id], static_cast<double>(expected_tasks) * j.task_runtime,
                1e-6);
  }
}

TEST(SlotMapping, SingleJobSingleQueue) {
  std::vector<MappingJob> jobs = {{0, 100.0, 50.0, 10.0}};
  const auto result = map_time_slots(jobs, 1, 0.0);
  EXPECT_TRUE(result.within_bound);
  ASSERT_EQ(result.segments.size(), 1u);
  EXPECT_EQ(result.segments[0].tasks, 5);
  EXPECT_DOUBLE_EQ(result.completion.at(0), 50.0);
  expect_conservation(jobs, result);
}

TEST(SlotMapping, SpreadsAcrossQueuesWhenDeadlineIsTight) {
  // 100 container-seconds by t=25 needs at least 4 queues of 10s tasks.
  std::vector<MappingJob> jobs = {{0, 25.0, 100.0, 10.0}};
  const auto result = map_time_slots(jobs, 5, 0.0);
  EXPECT_TRUE(result.within_bound);
  EXPECT_LE(result.completion.at(0), 25.0 + 10.0 + 1e-9);
  expect_no_overlap(result);
  expect_conservation(jobs, result);
}

TEST(SlotMapping, StretchRuleAllowsOneTaskPastDeadline) {
  // Queue almost full up to the deadline: the job still gets one task and
  // ends within deadline + R.
  std::vector<MappingJob> jobs = {{0, 10.0, 9.0, 9.0},   // fills queue 0 to 9
                                  {1, 10.0, 8.0, 8.0}};  // 8s task, queue 0 has 1s room
  const auto result = map_time_slots(jobs, 1, 0.0);
  EXPECT_TRUE(result.within_bound);
  EXPECT_LE(result.completion.at(1), 10.0 + 8.0 + 1e-9);
  expect_no_overlap(result);
}

TEST(SlotMapping, ZeroDemandCompletesImmediately) {
  std::vector<MappingJob> jobs = {{3, 50.0, 0.0, 5.0}};
  const auto result = map_time_slots(jobs, 2, 7.0);
  EXPECT_DOUBLE_EQ(result.completion.at(3), 7.0);
  EXPECT_TRUE(result.segments.empty());
}

TEST(SlotMapping, StartsAtNow) {
  std::vector<MappingJob> jobs = {{0, 300.0, 40.0, 10.0}};
  const auto result = map_time_slots(jobs, 2, 100.0);
  for (const MappedSegment& s : result.segments) EXPECT_GE(s.start, 100.0);
  EXPECT_GE(result.completion.at(0), 100.0);
}

TEST(SlotMapping, InfeasibleInputFallsBackBestEffort) {
  // One queue, deadline in the past relative to demand: bound is violated
  // but all work is still placed.
  std::vector<MappingJob> jobs = {{0, 5.0, 100.0, 10.0}};
  const auto result = map_time_slots(jobs, 1, 0.0);
  EXPECT_FALSE(result.within_bound);
  expect_conservation(jobs, result);
  expect_no_overlap(result);
}

TEST(SlotMapping, InputValidation) {
  EXPECT_THROW(map_time_slots({{0, 1.0, 1.0, 1.0}}, 0, 0.0), InvalidInput);
  EXPECT_THROW(map_time_slots({{0, 1.0, 1.0, 0.0}}, 1, 0.0), InvalidInput);
}

struct MappingInput {
  std::vector<MappingJob> jobs;
  ContainerCount capacity = 1;
  Seconds now = 0.0;
};

// EDF-feasible inputs: jobs packed while respecting the capacity condition
// sum(eta of deadlines <= d) <= capacity * (d - now).
MappingInput theorem3_input(std::uint64_t seed) {
  Rng rng(seed);
  MappingInput in;
  in.capacity = 1 + static_cast<int>(rng.uniform_int(1, 8));
  in.now = rng.uniform(0.0, 100.0);

  double cumulative = 0.0;
  Seconds deadline = in.now;
  const int n = 3 + static_cast<int>(rng.uniform_int(0, 9));
  for (JobId i = 0; i < n; ++i) {
    const double runtime = rng.uniform(2.0, 20.0);
    // Tasks must individually fit: whole-task rounding adds runtime per
    // job, and the classic bound assumes eta is a task multiple; keep it so.
    const int tasks = 1 + static_cast<int>(rng.uniform_int(0, 6));
    const double eta = tasks * runtime;
    cumulative += eta;
    deadline = std::max(deadline + rng.uniform(0.0, 30.0), in.now + cumulative / in.capacity);
    // Every task must also fit between now and the deadline.
    const Seconds d = std::max(deadline, in.now + runtime);
    in.jobs.push_back({i, d, eta, runtime});
    deadline = d;
    cumulative = std::max(cumulative, 0.0);
  }
  return in;
}

// Theorem 3 property: for EDF-feasible inputs, every job completes by
// deadline + task_runtime.
class Theorem3Test : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Theorem3Test, CompletionWithinDeadlinePlusRuntime) {
  const MappingInput in = theorem3_input(GetParam());
  const auto result = map_time_slots(in.jobs, in.capacity, in.now);
  for (const MappingJob& j : in.jobs) {
    EXPECT_LE(result.completion.at(j.id), j.deadline + j.task_runtime + 1e-6)
        << "job " << j.id << " violated the Theorem 3 bound";
  }
  EXPECT_TRUE(result.within_bound);
  expect_no_overlap(result);
  expect_conservation(in.jobs, result);
}

const auto kSeeds = ::testing::Values(1, 4, 9, 16, 25, 36, 49, 64, 81, 100, 121, 144);

INSTANTIATE_TEST_SUITE_P(Seeds, Theorem3Test, kSeeds);

// --- Head-of-queue census ---------------------------------------------------

// Each job's head count in Algorithm 4's packing: the head of a queue is the
// job of its earliest segment (the first packed, on a tie).
std::map<JobId, int> reference_heads(const MappingResult& result) {
  std::map<QueueId, const MappedSegment*> head_of;
  for (const MappedSegment& s : result.segments) {
    const auto [it, inserted] = head_of.emplace(s.queue, &s);
    if (!inserted && s.start < it->second->start) it->second = &s;
  }
  std::map<JobId, int> heads;
  for (const auto& [queue, s] : head_of) heads[s->job] += 1;
  return heads;
}

enum class Shape {
  kTheorem3,       // the Theorem3Test inputs
  kOverloaded,     // demand past every deadline: the best-effort tail runs
  kZeroDemand,     // every other job has no demand, some due before now
  kTiedDeadlines,  // few distinct deadlines, ids descending in input order
  kOneQueue,       // capacity 1
  kSpareQueues,    // more queues than jobs: the walk never fills them all
  kSubSecond,      // task runtimes below one second
};

std::string shape_name(Shape shape) {
  switch (shape) {
    case Shape::kTheorem3: return "Theorem3";
    case Shape::kOverloaded: return "Overloaded";
    case Shape::kZeroDemand: return "ZeroDemand";
    case Shape::kTiedDeadlines: return "TiedDeadlines";
    case Shape::kOneQueue: return "OneQueue";
    case Shape::kSpareQueues: return "SpareQueues";
    case Shape::kSubSecond: return "SubSecond";
  }
  return "Unknown";
}

void PrintTo(Shape shape, std::ostream* out) { *out << shape_name(shape); }

// Random jobs due in [now, now + spread] with whole-task demand of
// [min_tasks, max_tasks] tasks of [runtime_lo, runtime_hi) seconds.
std::vector<MappingJob> random_jobs(Rng& rng, int count, Seconds now, Seconds spread,
                                    int min_tasks, int max_tasks, Seconds runtime_lo,
                                    Seconds runtime_hi) {
  std::vector<MappingJob> jobs;
  for (JobId i = 0; i < count; ++i) {
    const Seconds runtime = rng.uniform(runtime_lo, runtime_hi);
    const auto tasks = static_cast<double>(rng.uniform_int(min_tasks, max_tasks));
    jobs.push_back({i, now + rng.uniform(0.0, spread), tasks * runtime, runtime});
  }
  return jobs;
}

MappingInput census_input(Shape shape, std::uint64_t seed) {
  Rng rng(seed);
  MappingInput in;
  in.capacity = 1 + static_cast<int>(rng.uniform_int(1, 8));
  in.now = rng.uniform(0.0, 100.0);
  const int n = 3 + static_cast<int>(rng.uniform_int(0, 9));
  switch (shape) {
    case Shape::kTheorem3:
      return theorem3_input(seed);
    case Shape::kOverloaded:
      in.jobs = random_jobs(rng, n, in.now, 20.0, 4, 30, 2.0, 20.0);
      break;
    case Shape::kZeroDemand:
      in.jobs = random_jobs(rng, n, in.now, 200.0, 1, 8, 2.0, 20.0);
      for (std::size_t i = 0; i < in.jobs.size(); i += 2) {
        in.jobs[i].eta = 0.0;
        if (i % 4 == 0) in.jobs[i].deadline = in.now - rng.uniform(1.0, 50.0);
      }
      break;
    case Shape::kTiedDeadlines:
      in.jobs = random_jobs(rng, n, in.now, 0.0, 1, 8, 2.0, 20.0);
      for (MappingJob& job : in.jobs) {
        job.id = n - 1 - job.id;
        job.deadline = in.now + 25.0 * static_cast<double>(rng.uniform_int(0, 2));
      }
      break;
    case Shape::kOneQueue:
      in.capacity = 1;
      in.jobs = random_jobs(rng, n, in.now, 100.0, 1, 6, 2.0, 20.0);
      break;
    case Shape::kSpareQueues:
      in.capacity = 16 + static_cast<int>(rng.uniform_int(0, 16));
      in.jobs = random_jobs(rng, 1 + static_cast<int>(rng.uniform_int(0, 3)), in.now,
                            100.0, 1, 3, 2.0, 20.0);
      break;
    case Shape::kSubSecond:
      in.jobs = random_jobs(rng, n, in.now, 5.0, 1, 20, 0.01, 0.9);
      break;
  }
  return in;
}

class CensusTest : public ::testing::TestWithParam<std::tuple<Shape, std::uint64_t>> {};

TEST_P(CensusTest, HeadCountsEqualAlgorithm4) {
  const auto [shape, seed] = GetParam();
  MappingInput in = census_input(shape, seed);
  const MappingResult reference = map_time_slots(in.jobs, in.capacity, in.now);
  if (shape == Shape::kOverloaded) {
    ASSERT_FALSE(reference.within_bound) << "input does not reach the best-effort tail";
  }
  if (shape == Shape::kSpareQueues) {
    ASSERT_LT(reference.segments.size(), static_cast<std::size_t>(in.capacity));
  }
  const std::map<JobId, int> want = reference_heads(reference);

  QueueCensus census;
  count_queue_heads(in.jobs, in.capacity, in.now, census);
  ASSERT_EQ(census.heads.size(), in.jobs.size());
  for (std::size_t i = 0; i < in.jobs.size(); ++i) {
    const auto it = want.find(in.jobs[i].id);
    EXPECT_EQ(census.heads[i], it == want.end() ? 0 : it->second)
        << "job " << in.jobs[i].id;
    if (i > 0) {
      const MappingJob& a = in.jobs[i - 1];
      const MappingJob& b = in.jobs[i];
      EXPECT_TRUE(a.deadline < b.deadline || (a.deadline == b.deadline && a.id < b.id))
          << "census left jobs " << a.id << " and " << b.id << " out of order";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, CensusTest,
    ::testing::Combine(::testing::Values(Shape::kTheorem3, Shape::kOverloaded,
                                         Shape::kZeroDemand, Shape::kTiedDeadlines,
                                         Shape::kOneQueue, Shape::kSpareQueues,
                                         Shape::kSubSecond),
                       kSeeds),
    [](const ::testing::TestParamInfo<CensusTest::ParamType>& info) {
      return shape_name(std::get<0>(info.param)) + "_" +
             std::to_string(std::get<1>(info.param));
    });

TEST(Census, ReusedBuffersStartEachCallAfresh) {
  QueueCensus census;
  std::vector<MappingJob> busy = {{0, 10.0, 40.0, 10.0}, {1, 10.0, 40.0, 10.0}};
  count_queue_heads(busy, 4, 0.0, census);
  std::vector<MappingJob> idle = {{5, 50.0, 10.0, 10.0}};
  count_queue_heads(idle, 4, 0.0, census);
  ASSERT_EQ(census.heads.size(), 1u);
  EXPECT_EQ(census.heads[0], 1);
  EXPECT_EQ(census.occupation.size(), 1u);
}

TEST(Census, InputValidation) {
  QueueCensus census;
  std::vector<MappingJob> jobs = {{0, 1.0, 1.0, 1.0}};
  EXPECT_THROW(count_queue_heads(jobs, 0, 0.0, census), InvalidInput);
  jobs = {{0, 1.0, 1.0, 0.0}};
  EXPECT_THROW(count_queue_heads(jobs, 1, 0.0, census), InvalidInput);
  // Demand due before now would reach a free queue only through Algorithm
  // 4's best-effort tail, which the census does not follow.
  jobs = {{0, 4.0, 1.0, 1.0}};
  EXPECT_THROW(count_queue_heads(jobs, 1, 5.0, census), InternalError);
  // Without demand, the job takes no queue, whenever it is due.
  jobs = {{0, 4.0, 0.0, 1.0}};
  count_queue_heads(jobs, 1, 5.0, census);
  EXPECT_EQ(census.heads[0], 0);
}

}  // namespace
}  // namespace rush
