#include "src/tas/slot_mapping.h"

#include <algorithm>
#include <cmath>

#include "src/common/error.h"

namespace rush {

void count_queue_heads(std::vector<MappingJob>& jobs, ContainerCount capacity,
                       Seconds now, QueueCensus& census) {
  require(capacity > 0, "count_queue_heads: capacity must be positive");
  for (const MappingJob& job : jobs) {
    require(job.task_runtime > 0.0, "count_queue_heads: non-positive task runtime");
    // A job due before `now` would skip the untouched queues and land on
    // one through Algorithm 4's best-effort tail, which the census does
    // not follow.
    ensure(job.eta <= 0.0 || job.deadline >= now,
           "count_queue_heads: job with demand due before now");
  }
  // Algorithm 4's order.  Deadlines are doubles and can tie, and std::sort
  // is unstable, so the id tiebreak keeps which tied job heads a queue a
  // function of the inputs.
  std::sort(jobs.begin(), jobs.end(), [](const MappingJob& a, const MappingJob& b) {
    return a.deadline < b.deadline || (a.deadline == b.deadline && a.id < b.id);
  });
  census.heads.assign(jobs.size(), 0);
  std::vector<Seconds>& occupation = census.occupation;
  occupation.clear();
  const auto queues = static_cast<std::size_t>(capacity);

  // Once every queue has a head, no later job can change one.  Tasks a job
  // has left after the last queue go to Algorithm 4's best-effort tail,
  // which lands only on touched queues, so the census drops them.
  for (std::size_t i = 0; i < jobs.size() && occupation.size() < queues; ++i) {
    const MappingJob& job = jobs[i];
    if (job.eta <= 0.0) continue;
    // Whole tasks of R_i seconds each, packed with Algorithm 4's arithmetic
    // so every touched queue's occupation is bit-equal to the reference's.
    auto remaining = static_cast<long>(std::ceil(job.eta / job.task_runtime - 1e-9));
    for (std::size_t k = 0; k < queues && remaining > 0; ++k) {
      if (k == occupation.size()) {
        // The first untouched queue: it is at `now` <= T_i, so the job
        // takes it and heads it.
        occupation.push_back(now);
        ++census.heads[i];
      }
      if (occupation[k] > job.deadline + 1e-9) continue;  // queue already past T_i
      // Every task that starts at or before T_i is allowed (at least one).
      const auto fit = static_cast<long>(
          std::ceil((job.deadline - occupation[k]) / job.task_runtime - 1e-9));
      const long take = std::min(std::max(fit, 1L), remaining);
      occupation[k] += static_cast<double>(take) * job.task_runtime;
      remaining -= take;
    }
  }
}

}  // namespace rush
