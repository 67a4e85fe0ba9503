// The transport-agnostic scheduler engine (DESIGN.md §5j).
//
// SchedulerEngine is the scheduling core: it holds the scheduler-observable
// job state (task counts, pending queues, runtime samples, utilities),
// maintains the incremental ClusterView (stable slots sorted by job id,
// refreshed from per-job dirty bits), and coalesces same-timestamp events
// into dispatch waves — arrivals dispatch immediately; completions and
// failures defer to the wave end.
//
// What it does NOT hold is physics: task runtimes, node speeds and failure
// injection live in the event *source*.  The virtual-clock source
// (EngineSimulation) is the repository's simulator; the wall-clock source
// (rushd) feeds the same engine from a socket.  Because events are the
// engine's only inputs, a recorded event stream replays to byte-identical
// traces, metrics and predictions (replay.h), and a state snapshot plus the
// event-log tail resumes a crashed session bit-exactly.
//
// Speculative execution (Hadoop-style backup attempts for stragglers) is an
// engine decision made from state the scheduler can already see: attempt
// launch times and the mean of the job's completed runtimes.  After a
// wave's grants, idle containers back up the worst straggler; the first
// attempt of a task to finish wins and its siblings are killed.  A
// speculating engine cannot be snapshotted (the attempt bookkeeping is not
// part of the snapshot layout); rushd never speculates.

#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/cluster/job.h"
#include "src/cluster/scheduler.h"
#include "src/common/error.h"
#include "src/common/types.h"
#include "src/engine/event.h"
#include "src/state/snapshot.h"
#include "src/utility/utility_function.h"

namespace rush {

struct EngineConfig {
  ContainerCount capacity = 0;
  /// Audits the incremental view against a from-scratch rebuild on every
  /// refresh (src/check/view_audit).
  bool audit_view = kDcheckEnabled;
  /// Hadoop-style speculative execution: containers left idle by a wave's
  /// grants run backup copies of straggling attempts.
  bool enable_speculation = false;
  /// An attempt counts as a straggler once its elapsed time exceeds this
  /// multiple of the job's mean completed-task runtime.
  double speculation_threshold = 1.5;
  /// Maximum simultaneous attempts per task (original + backups).
  int max_attempts_per_task = 2;
};

/// One container grant of a dispatch wave.
struct EngineAssignment {
  JobId job = kInvalidJob;
  int container = -1;
  /// Task index within the job's map (or reduce) list.
  int task_index = -1;
  bool is_reduce = false;
};

/// Per-job completion-time prediction, extracted from the RUSH plan after
/// each wave (empty for schedulers that do not plan): eta_i at level theta
/// and the projected completion the paper's web UI renders.
struct EnginePrediction {
  JobId id = kInvalidJob;
  ContainerSeconds eta = 0.0;
  Seconds target_completion = 0.0;
  Utility utility_level = 0.0;
  bool impossible = false;
  int desired_containers = 0;
};

/// One dispatch wave as seen by sinks: the grants made and the plan's
/// predictions after them.
struct EngineWave {
  Seconds now = 0.0;
  long index = 0;
  ContainerCount free_before = 0;
  ContainerCount free_after = 0;
  std::vector<EngineAssignment> assignments;
  std::vector<EnginePrediction> predictions;
};

/// Pluggable record stream: accepted events (the write-ahead log) and
/// per-wave stats/prediction records (the daemon's client stream).
class EngineSink {
 public:
  virtual ~EngineSink() = default;
  virtual void on_event(const EngineEvent& /*event*/) {}
  virtual void on_wave(const EngineWave& /*wave*/) {}
};

/// Receives each grant to realize it physically — the simulation samples a
/// runtime and schedules the completion event; the daemon streams the
/// assignment to its client, which reports the completion back.
class EngineExecutor {
 public:
  virtual ~EngineExecutor() = default;
  virtual void on_assignment(Seconds now, const EngineAssignment& assignment) = 0;
};

struct EngineStats {
  long scheduling_events = 0;
  /// Container grants, backups included.
  long assignments = 0;
  long task_failures = 0;
  long dispatch_waves = 0;
  long view_updates = 0;
  /// Backup attempts launched / killed because a sibling finished first.
  long speculative_attempts = 0;
  long speculative_kills = 0;
};

class SchedulerEngine {
 public:
  SchedulerEngine(EngineConfig config, Scheduler& scheduler);

  /// All three hooks are optional, not owned, and must outlive the engine.
  void set_observer(ClusterObserver* observer) { observer_ = observer; }
  void set_sink(EngineSink* sink) { sink_ = sink; }
  void set_executor(EngineExecutor* executor) { executor_ = executor; }

  /// Applies one event.  Event times must be non-decreasing; a later
  /// timestamp first flushes the pending wave of the previous one (the
  /// simulator's wave-end coalescing, restated without a clock).  Returns
  /// the job id for kJobSubmitted events, nullopt otherwise.
  std::optional<JobId> process(const EngineEvent& event);

  /// Ends the current wave: runs the deferred dispatch, emits the wave
  /// record.  Idempotent; call after the last event of a timestamp (event
  /// sources with a clock call it from their wave-end hook).
  void flush();

  Seconds now() const { return now_; }
  const EngineConfig& config() const { return config_; }
  ContainerCount capacity() const { return config_.capacity; }
  /// Jobs submitted and not yet finished.
  int unfinished_jobs() const { return unfinished_; }
  long jobs_submitted() const { return static_cast<long>(jobs_.size()); }
  const EngineStats& stats() const { return stats_; }

  /// Creation sequence number of the attempt running on `container`, 0 when
  /// the container is idle.  Sequence numbers start at 1 and never repeat,
  /// so an event source can tell whether a container still runs the attempt
  /// it was granted for (a killed backup's container may be re-granted).
  std::uint64_t attempt_sequence(int container) const;

  /// Final per-job outcomes, ascending id (unknown ids skipped).
  std::vector<JobRecord> job_records() const;

  /// Snapshot seam: writes the "engine" and "scheduler" sections.  The
  /// engine must be flushed (no wave pending) and must not speculate;
  /// restore rebuilds the view and derived state, after which the next
  /// wave is bit-identical to the one the original engine would have run
  /// (DESIGN.md §5j).  Both throw InvalidInput on a speculating engine.
  void save_state(Snapshot& snapshot) const;
  void restore_state(const Snapshot& snapshot);

 private:
  /// Scheduler-observable job state: everything but physics.
  struct EngineJob {
    JobConfig config;  // arrival overwritten with the submission event time
    JobId id = kInvalidJob;
    std::unique_ptr<UtilityFunction> utility;
    int maps_total = 0;
    int reduces_total = 0;
    int maps_completed = 0;
    int completed = 0;
    int running = 0;
    int failures = 0;
    bool finished = false;
    std::vector<char> map_done;
    std::vector<char> reduce_done;
    std::vector<int> pending_maps;
    std::vector<int> pending_reduces;
    std::vector<Seconds> runtime_samples;
    double sample_sum = 0.0;  // running sum for the straggler mean
    Seconds completion = kNever;

    int dispatchable() const;
    int total_tasks() const { return maps_total + reduces_total; }
  };

  /// The attempt running on one container (job == kInvalidJob: idle).
  struct ContainerAttempt {
    JobId job = kInvalidJob;
    int task_index = -1;
    bool is_reduce = false;
    Seconds start = 0.0;
    /// Creation order of the attempt; 0 while idle.
    std::uint64_t sequence = 0;

    bool same_task(const ContainerAttempt& other) const {
      return job == other.job && task_index == other.task_index &&
             is_reduce == other.is_reduce;
    }
  };

  std::optional<JobId> handle_job_submitted(const EngineEvent& event);
  void handle_task_finished(const EngineEvent& event);
  void handle_container_freed(const EngineEvent& event);
  void dispatch();
  /// Starts the job's next pending task on the top free container.
  void launch_task(EngineJob& job, EngineWave& wave);
  /// Starts an attempt of one task on a free container: grants and backups.
  void start_attempt(EngineJob& job, int task_index, bool is_reduce, EngineWave& wave);
  /// Backs up the worst stragglers while containers are free.
  void launch_speculative_backups(EngineWave& wave);
  /// Running attempts of the task `attempt` belongs to, itself included.
  int running_attempts(const ContainerAttempt& attempt) const;
  EngineJob& job_for_container(int container, const char* context);
  void release_container(std::size_t container_index);
  void collect_predictions(std::vector<EnginePrediction>& out) const;

  void fill_job_view(const EngineJob& job, JobView& view) const;
  void mark_view_dirty(std::size_t job_index);
  void refresh_job_slot(std::size_t job_index);
  const ClusterView& current_view();
  ClusterView make_view() const;
  void rebuild_view();

  EngineConfig config_;
  Scheduler& scheduler_;
  ClusterObserver* observer_ = nullptr;
  EngineSink* sink_ = nullptr;
  EngineExecutor* executor_ = nullptr;

  Seconds now_ = 0.0;
  /// jobs_[id] — ids are dense per source but may *arrive* out of order
  /// under the virtual clock, so this is indexed by id with no holes ever
  /// observable to the scheduler (a slot exists from its submission event).
  std::vector<std::unique_ptr<EngineJob>> jobs_;
  /// LIFO free stack (init 0..capacity-1, pop_back on grant, push_back on
  /// release) — part of the trace: it fixes which container each grant gets.
  std::vector<std::size_t> free_containers_;
  std::vector<ContainerAttempt> container_attempts_;  // indexed by container
  std::uint64_t next_attempt_sequence_ = 1;

  ClusterView view_;
  std::vector<char> view_dirty_;
  std::vector<std::size_t> dirty_jobs_;
  long dispatchable_total_ = 0;
  bool dispatch_pending_ = false;
  int unfinished_ = 0;
  EngineStats stats_;
};

}  // namespace rush
