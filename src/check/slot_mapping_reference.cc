#include "src/check/slot_mapping_reference.h"

#include <algorithm>
#include <cmath>

#include "src/common/error.h"

namespace rush {

MappingResult map_time_slots(std::vector<MappingJob> jobs, ContainerCount capacity,
                             Seconds now) {
  require(capacity > 0, "map_time_slots: capacity must be positive");

  MappingResult result;
  result.queue_occupation.assign(static_cast<std::size_t>(capacity), now);

  // Algorithm 4 walks jobs ordered by target completion time.  Deadlines are
  // doubles and can tie (equal etas under the same utility shape), and
  // std::sort is unstable, so ties must be broken by job id: without the
  // tiebreak, which of two tied jobs is packed first — and therefore each
  // job's queue and completion time — would depend on the sort
  // implementation, not on the inputs.
  std::sort(jobs.begin(), jobs.end(), [](const MappingJob& a, const MappingJob& b) {
    return a.deadline < b.deadline || (a.deadline == b.deadline && a.id < b.id);
  });

  for (const MappingJob& job : jobs) {
    require(job.task_runtime > 0.0, "map_time_slots: non-positive task runtime");
    if (job.eta <= 0.0) {
      result.completion[job.id] = now;
      continue;
    }
    // Whole tasks of R_i seconds each (demand is served in task granules).
    auto remaining = static_cast<long>(std::ceil(job.eta / job.task_runtime - 1e-9));
    Seconds finish = now;

    for (int k = 0; k < capacity && remaining > 0; ++k) {
      Seconds& occupation = result.queue_occupation[static_cast<std::size_t>(k)];
      if (occupation > job.deadline + 1e-9) continue;  // queue already past T_i
      // "The total workload ... is assigned to the current queue in the unit
      // of R_i until the current queue occupation is larger than T_i": every
      // task that *starts* at or before T_i is allowed, so the queue takes
      // ceil((T_i - O_k)/R_i) tasks (at least one when O_k == T_i).  Each
      // such task ends by T_i + R_i, which is the Theorem 3 bound.
      const auto fit = static_cast<long>(
          std::ceil((job.deadline - occupation) / job.task_runtime - 1e-9));
      const long take = std::min(std::max(fit, 1L), remaining);
      MappedSegment seg;
      seg.job = job.id;
      seg.queue = QueueId(k);
      seg.start = occupation;
      seg.duration = static_cast<double>(take) * job.task_runtime;
      seg.tasks = static_cast<int>(take);
      occupation += seg.duration;
      finish = std::max(finish, occupation);
      remaining -= take;
      result.segments.push_back(seg);
    }

    // Best effort for infeasible inputs: keep placing single tasks on the
    // least-occupied queue.  Only reachable when the deadlines violate the
    // EDF condition the onion peeler guarantees.
    while (remaining > 0) {
      result.within_bound = false;
      const auto it =
          std::min_element(result.queue_occupation.begin(), result.queue_occupation.end());
      const int k = static_cast<int>(it - result.queue_occupation.begin());
      MappedSegment seg;
      seg.job = job.id;
      seg.queue = QueueId(k);
      seg.start = *it;
      seg.duration = job.task_runtime;
      seg.tasks = 1;
      *it += seg.duration;
      finish = std::max(finish, *it);
      --remaining;
      result.segments.push_back(seg);
    }

    result.completion[job.id] = finish;
    if (finish > job.deadline + job.task_runtime + 1e-6) result.within_bound = false;
  }

  return result;
}

}  // namespace rush
