// The scheduler interface — the seam where RUSH and the baseline schedulers
// plug into the scheduler engine, mirroring how a YARN scheduler plugs into
// the ResourceManager.
//
// On every dispatch wave the engine hands the scheduler a read-only
// ClusterView and asks it to place all free containers of the wave in one
// assign_containers() call.  The scheduler sees only what YARN would
// expose: job metadata, task counts and completed-task runtime samples.
// Nominal task runtimes are deliberately NOT visible — runtimes must be
// learned, which is the paper's whole point.

#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/common/types.h"
#include "src/utility/utility_function.h"

namespace rush {

/// Read-only per-job snapshot handed to schedulers.
struct JobView {
  JobId id = kInvalidJob;
  Seconds arrival = 0.0;
  /// Absolute deadline knee: arrival + budget.
  Seconds budget_deadline = 0.0;
  Priority priority = 1.0;
  Sensitivity sensitivity = Sensitivity::kTimeSensitive;
  /// Utility over absolute completion time.  Owned by the cluster; valid
  /// for the duration of the call.
  const UtilityFunction* utility = nullptr;

  int total_tasks = 0;
  int completed_tasks = 0;
  int running_tasks = 0;
  /// Remaining (not yet successfully completed) tasks per phase.
  int remaining_maps = 0;
  int remaining_reduces = 0;
  /// Tasks dispatchable right now (maps, or reduces once all maps are done).
  int dispatchable_tasks = 0;
  /// Failed attempts observed so far (each re-queued its task).
  int failed_attempts = 0;

  /// Observed runtimes (seconds) of this job's completed tasks, in
  /// completion order — the stream the distribution estimator consumes.
  const std::vector<Seconds>* runtime_samples = nullptr;

  int remaining_tasks() const { return total_tasks - completed_tasks; }
};

/// Read-only cluster snapshot.  The cluster maintains one instance
/// incrementally (stable slots sorted by ascending job id, refreshed in
/// place from per-job dirty bits) instead of rebuilding it per call.
struct ClusterView {
  Seconds now = 0.0;
  ContainerCount capacity = 0;
  ContainerCount free_containers = 0;
  /// Jobs that have arrived and are not yet complete, ascending id order.
  std::vector<JobView> jobs;
  /// Dense id -> index into `jobs` (-1 = not present), maintained by the
  /// cluster alongside the slots.  Hand-built views (tests) may leave it
  /// empty, in which case find() falls back to the linear scan.
  std::vector<std::int32_t> id_to_index;

  const JobView* find(JobId id) const;
  JobView* find_mutable(JobId id);
};

class Scheduler {
 public:
  virtual ~Scheduler() = default;

  /// Display name used in benchmark tables ("RUSH", "FIFO", ...).
  [[nodiscard]] virtual std::string name() const = 0;

  /// Places up to `count` free containers in one call and returns the
  /// receiving job ids in handout order (possibly fewer than `count` when
  /// the scheduler leaves the rest idle).  Every chosen job must have a
  /// dispatchable task for each container it receives: a grant makes the
  /// job hold one more container and have one fewer dispatchable task.
  virtual std::vector<JobId> assign_containers(const ClusterView& view, int count) = 0;

  /// The job that would receive one free container, or nullopt to leave it
  /// idle: the first grant of assign_containers(view, 1).  Virtual only so
  /// forwarding decorators (rushbench's timing wrapper) can intercept it.
  virtual std::optional<JobId> assign_container(const ClusterView& view);

  /// Notification hooks (default: ignore).
  virtual void on_job_arrival(const ClusterView& /*view*/, JobId /*job*/) {}
  virtual void on_task_finished(const ClusterView& /*view*/, JobId /*job*/,
                                Seconds /*runtime*/, bool /*is_reduce*/) {}
  /// A task attempt died after `wasted` seconds and was re-queued (the
  /// paper's future-work extension: task failures are another uncertainty
  /// source the feedback cycle absorbs).  The wasted time is NOT a valid
  /// runtime sample.
  virtual void on_task_failed(const ClusterView& /*view*/, JobId /*job*/,
                              Seconds /*wasted*/) {}
  virtual void on_job_finished(const ClusterView& /*view*/, JobId /*job*/) {}

  /// Snapshot seam (DESIGN.md §5j).  Serializes everything the scheduler
  /// has learned (estimator moments, planner warm state) into an opaque
  /// byte blob, and restores it bit-exactly, so a restored scheduler makes
  /// the same decisions the original would have.  The blob is a plain
  /// string because this layer cannot see the snapshot container types.
  /// Default: stateless scheduler — empty blob out, any blob accepted.
  virtual void save_state(std::string& blob) const { blob.clear(); }
  virtual void restore_state(const std::string& /*blob*/) {}
};

}  // namespace rush
