// Replan scaling — per-pass latency of the planner against job count.
//
// Fig 5 shows the planning pass is the scalability bottleneck of the
// feedback cycle, and the yardstick is decision time that grows roughly
// linearly in the number of jobs.  The simulated pattern is the feedback
// cycle's common case — each pass, one container event changes ONE job's
// demand PMF and the scheduler replans everything: the WCDE memo re-solves
// only that job, and the onion peel starts from the previous pass's hint.
//
// Sweep: job count.  Every row replays the same kind of event sequence and
// reports per-pass latency, the mean per-pass time of each planner stage
// (WCDE, onion peel, head-of-queue census; from PlanStats, so they sum to
// about mean_ms), the onion-peel probes per measured pass (the
// hardware-independent cost) and the memo's hit rate over the measured
// passes.
//
// Output: out/replan_scaling.csv (see metrics/csv.h for the directory
// convention) plus a console table.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/core/rush_planner.h"
#include "src/metrics/csv.h"
#include "src/metrics/text_table.h"
#include "src/utility/utility_function.h"

namespace rush {
namespace {

constexpr ContainerCount kCapacity = 48;
constexpr int kWarmupPasses = 2;
constexpr int kMeasuredPasses = 12;

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

/// One simulated container event: job `victim` reports a new sample, so its
/// PMF shifts and the pass must re-solve it (and only it).
void mutate_one_job(Fixture& fixture, std::size_t victim, Rng& rng) {
  PlannerJob& job = fixture.jobs[victim];
  const double mean = rng.uniform(500.0, 5000.0);
  job.set_demand(QuantizedPmf::gaussian(mean, 0.15 * mean, 256, mean / 128.0));
  job.samples += 1;
}

struct Measurement {
  double mean_ms = 0.0;
  double median_ms = 0.0;
  double min_ms = 0.0;
  double max_ms = 0.0;
  /// Mean per-pass stage times, from PlanStats deltas.
  double wcde_ms = 0.0;
  double peel_ms = 0.0;
  double map_ms = 0.0;
  double probes_per_pass = 0.0;
  double hit_rate = 0.0;
};

Measurement measure(int job_count) {
  Fixture fixture = make_jobs(job_count, 91);
  const RushPlanner planner{RushConfig{}};

  Rng events(2024);
  std::vector<double> samples;
  samples.reserve(kMeasuredPasses);
  long probes = 0;
  PlanStats before;
  for (int pass = 0; pass < kWarmupPasses + kMeasuredPasses; ++pass) {
    if (pass == kWarmupPasses) before = planner.plan_stats();
    mutate_one_job(fixture, static_cast<std::size_t>(pass) %
                                fixture.jobs.size(), events);
    const auto start = std::chrono::steady_clock::now();
    const Plan plan = planner.plan(fixture.jobs, kCapacity, 0.0);
    const auto stop = std::chrono::steady_clock::now();
    if (plan.entries.size() != fixture.jobs.size()) std::abort();
    if (pass >= kWarmupPasses) {
      samples.push_back(std::chrono::duration<double, std::milli>(stop - start).count());
      probes += plan.peel_probes;
    }
  }

  Measurement m;
  std::sort(samples.begin(), samples.end());
  m.min_ms = samples.front();
  m.max_ms = samples.back();
  m.median_ms = samples[samples.size() / 2];
  for (double s : samples) m.mean_ms += s;
  m.mean_ms /= static_cast<double>(samples.size());
  m.probes_per_pass = static_cast<double>(probes) / static_cast<double>(kMeasuredPasses);
  const PlanStats after = planner.plan_stats();
  const auto per_pass_ms = [](double us) { return us / 1000.0 / kMeasuredPasses; };
  m.wcde_ms = per_pass_ms(after.wcde_us - before.wcde_us);
  m.peel_ms = per_pass_ms(after.peel_us - before.peel_us);
  m.map_ms = per_pass_ms(after.map_us - before.map_us);
  const long hits = after.wcde_cache_hits - before.wcde_cache_hits;
  const long misses = after.wcde_cache_misses - before.wcde_cache_misses;
  m.hit_rate = static_cast<double>(hits) / static_cast<double>(hits + misses);
  return m;
}

}  // namespace
}  // namespace rush

int main() {
  using rush::Measurement;

  const std::vector<int> job_counts = {100, 200, 500, 1000, 2000};

  const std::string csv_path = rush::output_path("replan_scaling.csv");
  rush::CsvWriter csv(csv_path, {"jobs", "passes", "mean_ms", "median_ms", "wcde_ms",
                                 "peel_ms", "map_ms", "min_ms", "max_ms",
                                 "probes_per_pass", "cache_hit_rate"});

  rush::TextTable table({"jobs", "median ms", "wcde ms", "peel ms", "map ms",
                         "probes/pass", "hit rate"});
  for (int jobs : job_counts) {
    const Measurement m = rush::measure(jobs);
    csv.add_row({std::to_string(jobs), std::to_string(rush::kMeasuredPasses),
                 rush::TextTable::num(m.mean_ms, 3),
                 rush::TextTable::num(m.median_ms, 3),
                 rush::TextTable::num(m.wcde_ms, 4),
                 rush::TextTable::num(m.peel_ms, 3),
                 rush::TextTable::num(m.map_ms, 4),
                 rush::TextTable::num(m.min_ms, 3),
                 rush::TextTable::num(m.max_ms, 3),
                 rush::TextTable::num(m.probes_per_pass, 1),
                 rush::TextTable::num(m.hit_rate, 3)});
    table.add_row({std::to_string(jobs), rush::TextTable::num(m.median_ms, 3),
                   rush::TextTable::num(m.wcde_ms, 4),
                   rush::TextTable::num(m.peel_ms, 3),
                   rush::TextTable::num(m.map_ms, 4),
                   rush::TextTable::num(m.probes_per_pass, 1),
                   rush::TextTable::num(m.hit_rate, 3)});
  }
  table.print(std::cout);
  std::printf("\nwrote %s\n", csv_path.c_str());
  return 0;
}
