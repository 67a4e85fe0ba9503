#include "src/experiments/experiment.h"

#include <cmath>

#include "src/baselines/edf_scheduler.h"
#include "src/baselines/fair_scheduler.h"
#include "src/baselines/fifo_scheduler.h"
#include "src/baselines/rrh_scheduler.h"
#include "src/common/error.h"
#include "src/workload/generator.h"

namespace rush {

std::unique_ptr<Scheduler> make_named_scheduler(const std::string& name,
                                                const RushConfig& rush_config) {
  if (name == "RUSH") return std::make_unique<RushScheduler>(rush_config);
  if (name == "EDF") return std::make_unique<EdfScheduler>();
  if (name == "FIFO") return std::make_unique<FifoScheduler>();
  if (name == "RRH") return std::make_unique<RrhScheduler>();
  if (name == "Fair") return std::make_unique<FairScheduler>();
  throw InvalidInput("make_named_scheduler: unknown scheduler '" + name + "'");
}

double budget_calibration(const std::vector<Node>& nodes, double noise_sigma) {
  // E[lognormal(0, sigma)] = exp(sigma^2 / 2).
  return average_speed_factor(nodes) * std::exp(0.5 * noise_sigma * noise_sigma);
}

Seconds measure_benchmark(const JobSpec& spec, const std::vector<Node>& nodes,
                          double noise_sigma, std::uint64_t seed) {
  FifoScheduler solo;
  ClusterConfig config;
  config.nodes = nodes;
  config.runtime_noise_sigma = noise_sigma;
  config.seed = seed;
  EngineSimulation simulation(config, solo);
  JobSpec alone = spec;
  alone.arrival = 0.0;
  // The benchmark must not depend on the job's utility configuration.
  alone.budget = 0.0;
  alone.utility_kind = "constant";
  alone.priority = 1.0;
  simulation.submit(std::move(alone));
  const RunResult result = simulation.run();
  ensure(result.completed, "measure_benchmark: solo run did not complete");
  return result.jobs[0].completion;
}

RunResult run_experiment(const std::string& scheduler_name,
                         const ExperimentConfig& config) {
  const std::vector<Node> nodes =
      config.nodes.empty() ? paper_testbed_nodes() : config.nodes;
  ContainerCount capacity = 0;
  for (const Node& n : nodes) capacity += n.containers;

  WorkloadConfig workload;
  workload.num_jobs = config.num_jobs;
  workload.mean_interarrival = config.mean_interarrival;
  workload.min_gigabytes = config.min_gigabytes;
  workload.max_gigabytes = config.max_gigabytes;
  workload.budget_ratio = config.budget_ratio;
  workload.benchmark_capacity = capacity;
  workload.benchmark_speed = budget_calibration(nodes, config.noise_sigma);
  workload.seed = config.seed;

  ClusterConfig cluster_config;
  cluster_config.nodes = nodes;
  cluster_config.runtime_noise_sigma = config.noise_sigma;
  cluster_config.seed = config.seed + 1;  // independent of workload stream
  cluster_config.audit_incremental_view = config.audit_seam;

  const auto scheduler = make_named_scheduler(scheduler_name, config.rush);
  EngineSimulation simulation(cluster_config, *scheduler);
  simulation.set_observer(config.observer);
  std::uint64_t bench_seed = config.seed + 1000003;
  for (JobSpec& spec : generate_workload(workload)) {
    // Replace the generator's analytic budget with the measured solo
    // benchmark, the way the paper sets budgets; the utility shape is
    // re-derived because beta scales with the budget.
    const Seconds bench =
        measure_benchmark(spec, nodes, config.noise_sigma, bench_seed++);
    apply_sensitivity(spec, spec.sensitivity, config.budget_ratio * bench,
                      spec.priority);
    simulation.submit(std::move(spec));
  }
  RunResult result = simulation.run();
  if (const auto* rush = dynamic_cast<const RushScheduler*>(scheduler.get())) {
    const PlanStats stats = rush->plan_stats();
    result.plan_peel_probes = stats.peel_probes;
    result.plan_warm_layers = stats.warm_layers;
  }
  return result;
}

}  // namespace rush
