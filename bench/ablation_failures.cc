// Ablation A7 — task failures (the paper's §VII future work, implemented).
//
// Sweeps the per-attempt failure probability and reports how RUSH and the
// baselines degrade.  Failures both waste capacity and invalidate runtime
// plans mid-flight; RUSH's feedback cycle replans on every failure, so its
// utility should degrade gracefully while the serial baselines compound
// their queueing collapse with re-execution.

#include <iostream>

#include "src/experiments/experiment.h"
#include "src/metrics/report.h"
#include "src/metrics/text_table.h"
#include "src/workload/generator.h"

namespace rush {
namespace {

RunResult run_with_failures(const std::string& scheduler_name, double failure_p,
                            std::uint64_t seed) {
  const std::vector<Node> nodes = paper_testbed_nodes();
  ExperimentConfig defaults;
  defaults.num_jobs = 60;

  WorkloadConfig workload;
  workload.num_jobs = defaults.num_jobs;
  workload.budget_ratio = 1.5;
  workload.benchmark_capacity = 48;
  workload.benchmark_speed = budget_calibration(nodes, defaults.noise_sigma);
  workload.seed = seed;

  ClusterConfig cluster_config;
  cluster_config.nodes = nodes;
  cluster_config.runtime_noise_sigma = defaults.noise_sigma;
  cluster_config.task_failure_probability = failure_p;
  cluster_config.seed = seed + 1;

  const auto scheduler = make_named_scheduler(scheduler_name);
  EngineSimulation cluster(cluster_config, *scheduler);
  std::uint64_t bench_seed = seed + 1000003;
  for (JobSpec& spec : generate_workload(workload)) {
    // Budgets measured on a failure-free cluster: failures are the
    // *unbudgeted* uncertainty the scheduler must absorb.
    const Seconds bench =
        measure_benchmark(spec, nodes, defaults.noise_sigma, bench_seed++);
    apply_sensitivity(spec, spec.sensitivity, 1.5 * bench, spec.priority);
    cluster.submit(std::move(spec));
  }
  return cluster.run();
}

void run_ablation() {
  std::cout << "=== Ablation A7: task failure probability sweep"
               " (60 jobs, budget ratio 1.5) ===\n\n";
  TextTable table({"failure p", "scheduler", "mean-util", "zero-util %",
                   "budget-hit %", "failures"});
  for (double p : {0.0, 0.1, 0.2, 0.3}) {
    for (const std::string name : {"RUSH", "EDF", "RRH"}) {
      double mean_util = 0.0, zero = 0.0, hit = 0.0;
      long failures = 0;
      const int seeds = 2;
      for (std::uint64_t seed = 700; seed < 700 + static_cast<std::uint64_t>(seeds);
           ++seed) {
        const auto result = run_with_failures(name, p, seed);
        double sum = 0.0;
        for (double u : achieved_utilities(result.jobs)) sum += u;
        mean_util += sum / static_cast<double>(result.jobs.size());
        zero += zero_utility_fraction(result.jobs);
        hit += budget_hit_fraction(result.jobs);
        failures += result.task_failures;
      }
      table.add_row({TextTable::num(p, 1), name, TextTable::num(mean_util / seeds, 3),
                     TextTable::num(100.0 * zero / seeds, 1),
                     TextTable::num(100.0 * hit / seeds, 1),
                     std::to_string(failures / seeds)});
    }
  }
  table.print(std::cout);
}

}  // namespace
}  // namespace rush

int main() {
  rush::run_ablation();
  return 0;
}
