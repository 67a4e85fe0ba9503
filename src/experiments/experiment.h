// Shared experiment harness for the paper's evaluation (§V).
//
// Every figure reproduction runs the same scenario: the 6-VM / 48-container
// testbed, the PUMA-mix workload with Poisson(130 s) arrivals, budgets set
// to ratio x benchmarked runtime, and one of {RUSH, EDF, FIFO, RRH, Fair}.
// This library centralises that setup so each bench binary is just its
// figure's sweep + table.
//
// Calibration note (DESIGN.md §2): the paper benchmarks each job on the
// real cluster, so its budgets absorb node heterogeneity and runtime noise.
// We replicate that by scaling the analytic benchmarked runtime with the
// capacity-weighted average node speed and the mean of the lognormal noise.

#pragma once

#include <memory>
#include <string>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/core/rush_scheduler.h"
#include "src/engine/simulation.h"

namespace rush {

struct ExperimentConfig {
  /// Jobs in the workload (paper: 100).
  int num_jobs = 100;
  /// Time budget multiplier over the benchmarked runtime (paper sweeps
  /// {2.0, 1.5, 1.0}).
  double budget_ratio = 2.0;
  /// Mean Poisson inter-arrival (paper: 130 s).
  Seconds mean_interarrival = 130.0;
  /// Data-set size range in GB (paper: 1-10).
  double min_gigabytes = 1.0;
  double max_gigabytes = 10.0;
  /// Lognormal runtime noise sigma of the cluster.
  double noise_sigma = 0.25;
  /// Workload + cluster RNG seed.
  std::uint64_t seed = 4242;
  /// Nodes; defaults to the paper's 48-container testbed when empty.
  std::vector<Node> nodes;
  /// RUSH tunables (only used when the scheduler is RUSH).
  RushConfig rush;
  /// Optional trace observer attached to the experiment's simulation (not
  /// the solo benchmark runs); not owned.  Lets callers capture the full event
  /// trace of a run — e.g. the determinism regression tests that diff two
  /// traces of the same seed.
  ClusterObserver* observer = nullptr;
};

/// Builds a scheduler by display name: "RUSH", "EDF", "FIFO", "RRH", "Fair".
/// Throws InvalidInput on unknown names.
std::unique_ptr<Scheduler> make_named_scheduler(const std::string& name,
                                                const RushConfig& rush_config = {});

/// The budget-calibration factor: average node speed times the mean of the
/// lognormal noise, i.e. the expected slowdown of a task relative to its
/// nominal runtime.  Used as a coarse pre-scaling; the harness then
/// *measures* each job's benchmark (below) the way the paper does.
double budget_calibration(const std::vector<Node>& nodes, double noise_sigma);

/// "The runtime of each job is benchmarked with all the resources available
/// in the cluster" (§V-B): runs the job alone on the given nodes (FIFO,
/// full capacity, typical noise) and returns its makespan.  Budgets built
/// from this measurement absorb heterogeneity, noise and the reduce
/// barrier, exactly like the paper's measured budgets.
Seconds measure_benchmark(const JobSpec& spec, const std::vector<Node>& nodes,
                          double noise_sigma, std::uint64_t seed);

/// Runs one full experiment: generate workload, simulate, return records.
RunResult run_experiment(const std::string& scheduler_name,
                         const ExperimentConfig& config);

}  // namespace rush
