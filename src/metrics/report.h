// Metric extraction from cluster run results — the quantities the paper's
// figures plot: latency (completion minus budget, Fig 4), achieved utility
// and its CDF (Fig 6), zero-utility fractions, and filters by sensitivity
// class.

#pragma once

#include <functional>
#include <optional>
#include <vector>

#include "src/cluster/job.h"
#include "src/stats/summary.h"

namespace rush {

/// Latencies (completion - (arrival + budget)) of the jobs matching the
/// filter; unfinished jobs are skipped.  Negative latency = met the budget.
std::vector<double> latencies(const std::vector<JobRecord>& jobs,
                              const std::function<bool(const JobRecord&)>& filter);

/// Latencies of the time-sensitive + time-critical subset (the Fig 4
/// population).
std::vector<double> deadline_job_latencies(const std::vector<JobRecord>& jobs);

/// Achieved utilities of all jobs; unfinished jobs contribute 0 (the paper:
/// jobs failing their deadlines "receive zero utility").
std::vector<double> achieved_utilities(const std::vector<JobRecord>& jobs);

/// Utilities normalised by each job's best possible utility, in [0, 1]
/// (comparable across priorities; used in CDF plots alongside raw values).
std::vector<double> normalized_utilities(const std::vector<JobRecord>& jobs);

/// Fraction of jobs with (near-)zero achieved utility.
double zero_utility_fraction(const std::vector<JobRecord>& jobs, double tol = 1e-9);

/// Fraction of deadline-carrying jobs that finished within budget.
double budget_hit_fraction(const std::vector<JobRecord>& jobs);

}  // namespace rush
