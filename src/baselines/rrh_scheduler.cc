#include "src/baselines/rrh_scheduler.h"

#include <algorithm>
#include <cmath>

namespace rush {

void RrhScheduler::on_task_finished(const ClusterView& /*view*/, JobId job,
                                    Seconds runtime, bool /*is_reduce*/) {
  per_job_runtimes_[job].add(runtime);
  global_runtimes_.add(runtime);
}

Seconds RrhScheduler::mean_runtime(const JobView& job) const {
  const auto it = per_job_runtimes_.find(job.id);
  if (it != per_job_runtimes_.end() && it->second.count() >= 3) return it->second.mean();
  if (global_runtimes_.count() >= 3) return global_runtimes_.mean();
  return 60.0;  // cold-start assumption, same default as RUSH's prior
}

std::vector<JobId> RrhScheduler::assign_containers(const ClusterView& view,
                                                   int count) {
  std::vector<JobId> grants;
  if (count <= 0) return grants;
  grants.reserve(static_cast<std::size_t>(count));
  const std::size_t n = view.jobs.size();
  // Runtime statistics cannot change mid-wave (on_task_finished only fires
  // between waves), so the per-job static terms are computed once; only the
  // reward re-evaluates per handout, against the wave-local running count.
  std::vector<int> running(n);
  std::vector<int> dispatchable(n);
  std::vector<double> work(n);      // remaining_tasks * mean_runtime
  std::vector<double> at_stake(n);  // static criticality bid
  for (std::size_t j = 0; j < n; ++j) {
    const JobView& jv = view.jobs[j];
    running[j] = jv.running_tasks;
    dispatchable[j] = jv.dispatchable_tasks;
    const Seconds mean = mean_runtime(jv);
    work[j] = static_cast<double>(jv.remaining_tasks()) * mean;
    at_stake[j] = jv.utility->value(jv.budget_deadline) -
                  jv.utility->value(jv.budget_deadline + mean);
  }
  // Expected completion if job j holds `containers` containers from now on.
  // Without resources the job drifts; model it as finishing one "round"
  // after every other job would (a large but finite horizon keeps linear
  // utilities comparable).
  const auto projected = [&](std::size_t j, int containers) -> Seconds {
    if (containers <= 0) return view.now + 4.0 * work[j];
    return view.now + work[j] / static_cast<double>(containers);
  };
  for (int c = 0; c < count; ++c) {
    std::size_t best = n;
    double best_score = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      if (dispatchable[j] <= 0) continue;
      const JobView& jv = view.jobs[j];
      // Reward: utility improvement from one extra container.  Risk: the
      // static criticality bid at_stake — what the job stands to lose per
      // task-time of delay around its budget knee.  Steep (time-critical)
      // utilities bid their whole cliff and win containers long before
      // their deadline; flat ones bid ~0.  A job whose projected completion
      // already yields no utility is a sunk cost and bids only its
      // (vanishing) marginal reward — the paper observes exactly this pair
      // of behaviours for RRH: critical jobs finish far ahead of their
      // deadlines while sensitive jobs are starved.
      const Seconds t_with = projected(j, running[j] + 1);
      const Seconds t_without = projected(j, running[j]);
      const double reward = jv.utility->value(t_with) - jv.utility->value(t_without);
      const bool winnable = jv.utility->value(t_with) > 1e-3;
      const double score = reward + (winnable ? at_stake[j] : 0.0);
      if (best == n || score > best_score ||
          (score == best_score &&
           jv.budget_deadline < view.jobs[best].budget_deadline)) {
        best = j;
        best_score = score;
      }
    }
    if (best == n) break;
    ++running[best];
    --dispatchable[best];
    grants.push_back(view.jobs[best].id);
  }
  return grants;
}

}  // namespace rush
