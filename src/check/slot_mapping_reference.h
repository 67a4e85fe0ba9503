// Continuous time slot mapping — Algorithm 4 of the paper, in full.
//
// Tasks hold a container continuously from start to finish, so the abstract
// container-seconds schedule from onion peeling must be turned into gap-free
// per-container assignments.  The mapper keeps one queue per container
// (occupation O_k), walks jobs in deadline order and packs whole tasks of
// length R_i into queues, moving to the next queue once the current one is
// occupied past the job's deadline.  Theorem 3: every job then completes no
// later than T_i + R_i.
//
// The planner reads only each job's queue-head count from this packing and
// computes it with the census in src/tas/slot_mapping.h.  This is the
// census's reference: audited planner builds run it on every pass, audit it
// with audit_mapping and compare its heads with the census's
// (audit_queue_heads).

#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/common/types.h"
#include "src/common/units.h"
#include "src/tas/slot_mapping.h"

namespace rush {

/// Opaque index of one container queue inside a mapping pass.  A strong id:
/// comparable, but with no arithmetic — a queue is a place, not a number,
/// and the historical `int` field let task counts and queue indices swap
/// silently.  Default-constructed ids are invalid (-1).
using QueueId = units::StrongId<struct QueueIdTag, std::int32_t>;

/// A contiguous run of one job's tasks on one container queue.
struct MappedSegment {
  JobId job = kInvalidJob;
  QueueId queue;
  Seconds start = 0.0;
  Seconds duration = 0.0;
  /// Number of whole tasks packed back-to-back in this segment.
  int tasks = 0;

  Seconds end() const { return start + duration; }
};

struct MappingResult {
  std::vector<MappedSegment> segments;
  /// Final occupation O_k of each queue (absolute time).
  std::vector<Seconds> queue_occupation;
  /// Completion time of each job (max end over its segments; `now` for jobs
  /// with no demand).
  std::unordered_map<JobId, Seconds> completion;
  /// True when every job finished by deadline + task_runtime (the Theorem 3
  /// bound).  False indicates the input deadlines were not EDF-feasible and
  /// a best-effort packing was produced instead.
  bool within_bound = true;
};

/// Runs Algorithm 4 starting at absolute time `now` on `capacity` queues.
MappingResult map_time_slots(std::vector<MappingJob> jobs, ContainerCount capacity,
                             Seconds now);

}  // namespace rush
