// The randomized contended workloads shared by golden_trace_test,
// engine_replay_test and cluster_test: 3-7 jobs per seed with random
// arrivals (so job ids arrive out of order), budgets, priorities, utility
// shapes and map/reduce counts, on a 6-container cluster with lognormal
// noise 0.3 and, on about half the seeds, task failure probability 0.08.
//
// golden_trace_test's digests pin both functions: changing either one
// means re-recording them.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/cluster/job.h"
#include "src/cluster/node.h"
#include "src/common/rng.h"

namespace rush {

inline std::vector<JobSpec> random_workload(std::uint64_t seed) {
  Rng rng(seed);
  const int num_jobs = 3 + static_cast<int>(rng.uniform_int(0, 4));
  std::vector<JobSpec> specs;
  for (int j = 0; j < num_jobs; ++j) {
    JobSpec spec;
    spec.name = "job" + std::to_string(j);
    spec.arrival = rng.uniform(0.0, 150.0);
    spec.budget = rng.uniform(60.0, 400.0);
    spec.priority = rng.uniform(0.5, 3.0);
    spec.beta = rng.uniform(0.5, 2.0);
    switch (rng.uniform_int(0, 2)) {
      case 0: spec.utility_kind = "linear"; break;
      case 1: spec.utility_kind = "sigmoid"; break;
      default: spec.utility_kind = "constant"; break;
    }
    const int maps = 1 + static_cast<int>(rng.uniform_int(0, 9));
    const int reduces = static_cast<int>(rng.uniform_int(0, 3));
    for (int m = 0; m < maps; ++m) {
      spec.tasks.push_back(TaskSpec{rng.uniform(5.0, 50.0), false});
    }
    for (int r = 0; r < reduces; ++r) {
      spec.tasks.push_back(TaskSpec{rng.uniform(5.0, 40.0), true});
    }
    specs.push_back(std::move(spec));
  }
  return specs;
}

/// The small contended cluster.  Lognormal noise keeps distinct events off
/// identical timestamps.
inline ClusterConfig contended_config(std::uint64_t seed, bool speculation) {
  Rng knobs(seed * 7919);
  ClusterConfig config;
  config.nodes = homogeneous_nodes(2, 3);
  config.runtime_noise_sigma = 0.3;
  config.task_failure_probability = knobs.uniform() < 0.5 ? 0.08 : 0.0;
  config.enable_speculation = speculation;
  config.seed = seed + 17;
  return config;
}

}  // namespace rush
