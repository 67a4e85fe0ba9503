#include "src/metrics/report.h"

namespace rush {

std::vector<double> latencies(const std::vector<JobRecord>& jobs,
                              const std::function<bool(const JobRecord&)>& filter) {
  std::vector<double> out;
  for (const JobRecord& j : jobs) {
    if (j.completion == kNever) continue;
    if (filter && !filter(j)) continue;
    out.push_back(j.latency());
  }
  return out;
}

std::vector<double> deadline_job_latencies(const std::vector<JobRecord>& jobs) {
  return latencies(jobs, [](const JobRecord& j) {
    return j.sensitivity != Sensitivity::kTimeInsensitive;
  });
}

std::vector<double> achieved_utilities(const std::vector<JobRecord>& jobs) {
  std::vector<double> out;
  out.reserve(jobs.size());
  for (const JobRecord& j : jobs) out.push_back(j.completion == kNever ? 0.0 : j.utility);
  return out;
}

std::vector<double> normalized_utilities(const std::vector<JobRecord>& jobs) {
  std::vector<double> out;
  out.reserve(jobs.size());
  for (const JobRecord& j : jobs) {
    const double best = j.best_possible_utility;
    const double achieved = j.completion == kNever ? 0.0 : j.utility;
    out.push_back(best > 0.0 ? achieved / best : 0.0);
  }
  return out;
}

double zero_utility_fraction(const std::vector<JobRecord>& jobs, double tol) {
  if (jobs.empty()) return 0.0;
  std::size_t zero = 0;
  for (const JobRecord& j : jobs) {
    if (j.completion == kNever || j.utility <= tol) ++zero;
  }
  return static_cast<double>(zero) / static_cast<double>(jobs.size());
}

double budget_hit_fraction(const std::vector<JobRecord>& jobs) {
  std::size_t eligible = 0;
  std::size_t hit = 0;
  for (const JobRecord& j : jobs) {
    if (j.sensitivity == Sensitivity::kTimeInsensitive) continue;
    ++eligible;
    if (j.completion != kNever && j.latency() <= 0.0) ++hit;
  }
  return eligible == 0 ? 1.0 : static_cast<double>(hit) / static_cast<double>(eligible);
}

}  // namespace rush
