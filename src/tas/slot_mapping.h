// Head-of-queue census — planner steps 3–4, read off Algorithm 4 of the
// paper.
//
// Algorithm 4 (continuous time slot mapping) keeps one queue per container
// (occupation O_k), walks jobs in deadline order and packs whole tasks of
// length R_i into queues, moving to the next queue once the current one is
// occupied past the job's deadline.  The CA unit reads one number per job
// from that packing: how many queues the job heads, which is how many
// containers it should hold next.  The census computes that number without
// building the packing:
//
//   - every queue starts at `now`, and a job due at or after `now` never
//     skips a queue still at `now`, so the queues ever touched form a
//     prefix, and a queue's head is the job that extended the prefix onto
//     it;
//   - the best-effort tail for EDF-infeasible inputs runs only after every
//     queue is touched, so it never changes a head;
//   - once every queue has a head, no later job can change one.
//
// The full packing (segments, completions, the Theorem 3 bound) is the
// reference map_time_slots in src/check; audited builds run it beside the
// census on every pass and require equal head counts.

#pragma once

#include <vector>

#include "src/common/types.h"

namespace rush {

/// One job to map: target deadline, remaining demand and task granule.
struct MappingJob {
  JobId id = kInvalidJob;
  /// Target completion time T_i from the onion peeling step.
  Seconds deadline = 0.0;
  /// Remaining demand eta_i in container-seconds.
  ContainerSeconds eta = 0.0;
  /// Average container holding time of one task, R_i (> 0).
  Seconds task_runtime = 1.0;
};

/// Buffers of one census, reused across planning passes.
struct QueueCensus {
  /// Occupation O_k of each touched queue; its size is the touched prefix.
  std::vector<Seconds> occupation;
  /// heads[i] is the number of queues the i-th sorted job heads.
  std::vector<int> heads;
};

/// Sorts `jobs` by (deadline, id), the order Algorithm 4 walks them, and
/// sets `census.heads[i]` to the number of the `capacity` queues, all free
/// at absolute time `now`, whose first task Algorithm 4 gives to jobs[i].
/// Every job with positive demand must be due at or after `now`, as the
/// onion peel guarantees; InternalError otherwise.
void count_queue_heads(std::vector<MappingJob>& jobs, ContainerCount capacity,
                       Seconds now, QueueCensus& census);

}  // namespace rush
