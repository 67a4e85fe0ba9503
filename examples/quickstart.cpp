// Quickstart: schedule three jobs with different time-sensitivity on a
// simulated 8-container cluster using the RUSH scheduler.
//
//   build/examples/quickstart
//
// Walks the whole public API surface: build JobSpecs, pick a utility class
// per job, run the event-driven engine with RushScheduler, and read the
// results.  EngineSimulation is the virtual-clock event source on top of
// SchedulerEngine — the same engine rushd feeds from a socket (DESIGN.md
// §5j).

#include <iostream>

#include "src/core/rush_scheduler.h"
#include "src/engine/simulation.h"
#include "src/metrics/text_table.h"

using namespace rush;

namespace {

JobSpec make_job(const std::string& name, Seconds arrival, Seconds budget,
                 const std::string& utility_kind, double beta, Priority priority,
                 int maps, Seconds task_seconds) {
  JobSpec spec;
  spec.name = name;
  spec.arrival = arrival;
  spec.budget = budget;
  spec.utility_kind = utility_kind;
  spec.beta = beta;
  spec.priority = priority;
  for (int m = 0; m < maps; ++m) spec.tasks.push_back({task_seconds, false});
  spec.tasks.push_back({task_seconds, true});  // one reduce behind the barrier
  return spec;
}

}  // namespace

int main() {
  // A RUSH scheduler with the paper's recommended settings: 90th-percentile
  // demand coverage within a KL ball of radius 0.7 around the estimate.
  RushConfig config;
  config.theta = 0.9;
  config.delta = 0.7;
  config.prior.mean_runtime = 20.0;  // what we expect a task to take, cold
  config.prior.stddev_runtime = 8.0;
  RushScheduler scheduler(config);

  // An 8-container cluster with 20% lognormal runtime noise — the
  // "uncertainty in the jobs' runtime" the scheduler must absorb.
  ClusterConfig sim_config;
  sim_config.nodes = homogeneous_nodes(2, 4);
  sim_config.runtime_noise_sigma = 0.2;
  sim_config.seed = 7;
  EngineSimulation simulation(sim_config, scheduler);

  // Three jobs: a deadline-critical one, a gently time-sensitive one, and a
  // batch job that does not care when it finishes.
  simulation.submit(make_job("video-transcode", 0.0, 120.0, "sigmoid", 0.5, 5.0, 12, 20.0));
  simulation.submit(make_job("daily-report", 10.0, 400.0, "linear", 0.01, 3.0, 10, 20.0));
  simulation.submit(make_job("log-archive", 20.0, 0.0, "constant", 1.0, 1.0, 14, 20.0));

  const RunResult result = simulation.run();

  TextTable table({"job", "sensitivity", "budget", "completed", "latency", "utility"});
  for (const JobRecord& job : result.jobs) {
    table.add_row({job.name, job.budget > 0.0 ? "deadline" : "none",
                   TextTable::num(job.budget, 0), TextTable::num(job.completion, 1),
                   job.budget > 0.0 ? TextTable::num(job.latency(), 1) : "-",
                   TextTable::num(job.utility, 2)});
  }
  table.print(std::cout);
  std::cout << "\nmakespan " << result.makespan << " s, " << result.assignments
            << " container assignments, " << scheduler.plans_computed()
            << " planning passes\n"
            << "Note how the insensitive 'log-archive' job is delayed so the "
               "critical 'video-transcode' job meets its 120 s budget.\n";
  return 0;
}
