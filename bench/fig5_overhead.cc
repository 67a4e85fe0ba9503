// Fig 5 — resource consumption and execution time of the RUSH scheduler.
//
// The paper submits WordCount jobs with random configurations so that 20 to
// 1000 jobs are simultaneously active, and measures the scheduler's CPU,
// memory and algorithm runtime (0.32 s at 20 jobs to 7.34 s at 1000, RAM
// < 130 MB).  Here google-benchmark times one full CA planning pass (WCDE +
// onion peeling + head-of-queue census) over the same job-count sweep, in
// the two states the feedback cycle meets:
//
//   - BM_PlanningPassCold: a fresh planner per pass (the first pass after
//     start or restore): every job is solved and every layer peeled
//     without a hint.
//   - BM_PlanningPassWarm: one planner, and before each pass one job's
//     demand snapshot is swapped for a new one, as one container event
//     does (the pattern of bench/replan_scaling.cc): the memo re-solves
//     that job and the peel starts from the previous pass's hint.
//
// Building the planner and swapping the snapshot happen outside the timed
// region.  Both report peel probes and heap bytes allocated per pass
// (through a counting allocator).
//
// Expected shape: near-linear growth in job count, absolute times small
// (our pass is faster than the paper's JVM implementation; the shape is
// what matters), memory well under the paper's 130 MB.

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include <benchmark/benchmark.h>

#include "src/common/rng.h"
#include "src/core/rush_planner.h"
#include "src/utility/utility_function.h"

namespace {

std::atomic<std::size_t> g_allocated{0};

}  // namespace

// Counting allocator hooks: track bytes requested while a planning pass
// runs.  Replacing the global operators is legal ([replacement.functions]);
// GCC's -Wmismatched-new-delete cannot see that the replacement is
// program-wide and flags the std::free, so the diagnostic is silenced here.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t size) {
  g_allocated.fetch_add(size, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();  // lint: R4-ok(replacement operator new must throw bad_alloc)
}

void* operator new[](std::size_t size) {
  g_allocated.fetch_add(size, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();  // lint: R4-ok(replacement operator new must throw bad_alloc)
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace rush {
namespace {

/// WordCount-like planner inputs with randomised budgets/priorities.
struct Fixture {
  std::vector<std::unique_ptr<UtilityFunction>> utilities;
  std::vector<PlannerJob> jobs;
};

Fixture make_jobs(int count, std::uint64_t seed) {
  Fixture f;
  Rng rng(seed);
  for (int i = 0; i < count; ++i) {
    const double budget = rng.uniform(100.0, 2000.0);
    f.utilities.push_back(std::make_unique<SigmoidUtility>(
        budget, rng.uniform(1.0, 5.0), 8.8 / (0.3 * budget)));
    PlannerJob job;
    job.id = i;
    const double mean = rng.uniform(500.0, 5000.0);
    job.set_demand(QuantizedPmf::gaussian(mean, 0.15 * mean, 256, mean / 128.0));
    job.mean_runtime = rng.uniform(20.0, 60.0);
    job.samples = 40;
    job.utility = f.utilities.back().get();
    f.jobs.push_back(std::move(job));
  }
  return f;
}

constexpr ContainerCount kCapacity = 48;

/// One container event: job `victim` reports a new sample, so its PMF
/// shifts and the next pass must re-solve it (and only it).
void mutate_one_job(Fixture& fixture, std::size_t victim, Rng& rng) {
  PlannerJob& job = fixture.jobs[victim];
  const double mean = rng.uniform(500.0, 5000.0);
  job.set_demand(QuantizedPmf::gaussian(mean, 0.15 * mean, 256, mean / 128.0));
  job.samples += 1;
}

/// Runs one timed pass and adds its probes and allocated bytes to the
/// per-pass counters.
void timed_pass(const RushPlanner& planner, const Fixture& fixture, double& probes,
                double& bytes) {
  const std::size_t before = g_allocated.load(std::memory_order_relaxed);
  const Plan plan = planner.plan(fixture.jobs, kCapacity, 0.0);
  bytes += static_cast<double>(g_allocated.load(std::memory_order_relaxed) - before);
  benchmark::DoNotOptimize(plan.entries.data());
  probes += static_cast<double>(plan.peel_probes);
}

void report(benchmark::State& state, double probes, double bytes) {
  state.counters["jobs"] = static_cast<double>(state.range(0));
  state.counters["peel_probes"] =
      benchmark::Counter(probes, benchmark::Counter::kAvgIterations);
  state.counters["alloc_MB_per_pass"] =
      benchmark::Counter(bytes / (1024.0 * 1024.0), benchmark::Counter::kAvgIterations);
}

void BM_PlanningPassCold(benchmark::State& state) {
  const Fixture fixture = make_jobs(static_cast<int>(state.range(0)), 91);
  std::unique_ptr<RushPlanner> planner;
  double probes = 0.0;
  double bytes = 0.0;
  for (auto _ : state) {
    state.PauseTiming();
    planner = std::make_unique<RushPlanner>(RushConfig{});
    state.ResumeTiming();
    timed_pass(*planner, fixture, probes, bytes);
  }
  report(state, probes, bytes);
}

void BM_PlanningPassWarm(benchmark::State& state) {
  Fixture fixture = make_jobs(static_cast<int>(state.range(0)), 91);
  const RushPlanner planner{RushConfig{}};
  benchmark::DoNotOptimize(planner.plan(fixture.jobs, kCapacity, 0.0).entries.data());
  Rng events(2024);
  std::size_t victim = 0;
  double probes = 0.0;
  double bytes = 0.0;
  for (auto _ : state) {
    state.PauseTiming();
    mutate_one_job(fixture, victim++ % fixture.jobs.size(), events);
    state.ResumeTiming();
    timed_pass(planner, fixture, probes, bytes);
  }
  report(state, probes, bytes);
}

BENCHMARK(BM_PlanningPassCold)
    ->Arg(20)
    ->Arg(50)
    ->Arg(100)
    ->Arg(200)
    ->Arg(500)
    ->Arg(1000)
    ->Unit(benchmark::kMillisecond);

BENCHMARK(BM_PlanningPassWarm)
    ->Arg(20)
    ->Arg(50)
    ->Arg(100)
    ->Arg(200)
    ->Arg(500)
    ->Arg(1000)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace rush

BENCHMARK_MAIN();
