#include "src/engine/engine.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/core/rush_scheduler.h"

namespace rush {

int SchedulerEngine::EngineJob::dispatchable() const {
  if (finished) return 0;
  if (!pending_maps.empty()) return static_cast<int>(pending_maps.size());
  // Reduce barrier: reduces unlock only when every map has completed.
  if (maps_completed < maps_total) return 0;
  return static_cast<int>(pending_reduces.size());
}

SchedulerEngine::SchedulerEngine(EngineConfig config, Scheduler& scheduler)
    : config_(config), scheduler_(scheduler) {
  require(config_.capacity > 0, "SchedulerEngine: need at least one container");
  require(config_.max_attempts_per_task >= 1,
          "SchedulerEngine: need at least one attempt per task");
  require(config_.speculation_threshold > 0.0,
          "SchedulerEngine: speculation threshold must be positive");
  container_attempts_.assign(static_cast<std::size_t>(config_.capacity), ContainerAttempt{});
  for (std::size_t c = 0; c < static_cast<std::size_t>(config_.capacity); ++c) {
    free_containers_.push_back(c);
  }
  view_.capacity = config_.capacity;
}

void SchedulerEngine::check(const EngineEvent& event) const {
  // A non-finite clock could not be snapshotted and restored.
  require(std::isfinite(event.time), "SchedulerEngine::process: event time must be finite");
  require(event.time >= now_, "SchedulerEngine::process: event time moves backwards");
  // A wave pending from an earlier timestamp is flushed before a later
  // event applies, and may grant the container it names.
  const bool pending_grant = dispatch_pending_ && event.time > now_;
  const auto require_attempt = [&](const char* context) {
    require(event.container >= 0 && event.container < config_.capacity,
            std::string(context) + ": container index out of range");
    require(pending_grant ||
                container_attempts_[static_cast<std::size_t>(event.container)].job !=
                    kInvalidJob,
            std::string(context) + ": container " + std::to_string(event.container) +
                " has no running attempt");
  };
  switch (event.kind) {
    case EngineEvent::Kind::kJobSubmitted: {
      require(event.job_id >= 0, "SchedulerEngine: job id must be non-negative");
      const auto slot = static_cast<std::size_t>(event.job_id);
      require(slot >= jobs_.size() || jobs_[slot] == nullptr,
              "SchedulerEngine: duplicate submission of job " + std::to_string(event.job_id));
      event.job.validate();
      return;
    }
    case EngineEvent::Kind::kTaskFinished:
      require_attempt("SchedulerEngine[TaskFinished]");
      // An estimator's moments, and every PMF built from them, need samples
      // that are finite and positive.
      require(std::isfinite(event.runtime) && event.runtime > 0.0,
              "SchedulerEngine[TaskFinished]: runtime must be finite and positive");
      return;
    case EngineEvent::Kind::kContainerFreed:
      require_attempt("SchedulerEngine[ContainerFreed]");
      require(event.wasted >= 0.0, "SchedulerEngine[ContainerFreed]: negative wasted time");
      return;
    case EngineEvent::Kind::kSnapshotRequested:
      return;
  }
  throw InvalidInput("SchedulerEngine::process: unknown event kind");
}

std::optional<JobId> SchedulerEngine::process(const EngineEvent& event) {
  check(event);
  if (event.time > now_) {
    // A later timestamp ends the previous wave — the simulator's wave-end
    // hook restated without a clock (idempotent when the source already
    // flushed).  That wave may have granted the event's container, so the
    // event is checked again against the state it applies to.
    flush();
    now_ = event.time;
    check(event);
  }
  // Write-ahead: the sink records the event before it is applied, so a
  // crash mid-apply leaves a log that replays into the same crash.
  if (sink_ != nullptr) sink_->on_event(event);
  switch (event.kind) {
    case EngineEvent::Kind::kJobSubmitted:
      return handle_job_submitted(event);
    case EngineEvent::Kind::kTaskFinished:
      handle_task_finished(event);
      return std::nullopt;
    case EngineEvent::Kind::kContainerFreed:
      handle_container_freed(event);
      return std::nullopt;
    case EngineEvent::Kind::kSnapshotRequested:
      // Snapshot consistency wants a wave boundary; the host persists the
      // state after process() returns.
      flush();
      return std::nullopt;
  }
  throw InvalidInput("SchedulerEngine::process: unknown event kind");
}

std::optional<JobId> SchedulerEngine::handle_job_submitted(const EngineEvent& event) {
  // A completion earlier in this timestamp batch may have its wave still
  // pending; it is served before the arrival, which keeps waves in event
  // order.
  flush();
  const JobId id = event.job_id;
  const auto slot = static_cast<std::size_t>(id);
  if (slot >= jobs_.size()) jobs_.resize(slot + 1);

  const JobConfig& config = event.job;
  auto job = std::make_unique<EngineJob>();
  job->config = config;
  job->config.arrival = event.time;  // authoritative arrival = event time
  job->id = id;
  job->utility = make_utility(config.utility_kind, event.time + config.budget,
                              config.priority, config.beta);
  job->maps_total = config.maps;
  job->reduces_total = config.reduces;
  job->map_done.assign(static_cast<std::size_t>(config.maps), 0);
  job->reduce_done.assign(static_cast<std::size_t>(config.reduces), 0);
  for (int m = 0; m < config.maps; ++m) job->pending_maps.push_back(m);
  for (int r = 0; r < config.reduces; ++r) job->pending_reduces.push_back(r);
  jobs_[slot] = std::move(job);
  // Ids may arrive out of order under the virtual clock.
  active_.insert(std::lower_bound(active_.begin(), active_.end(), slot), slot);

  ++stats_.scheduling_events;
  if (observer_ != nullptr) observer_->on_job_arrival(now_, id, config.name);
  scheduler_.on_job_arrival(current_view(), id);
  // Arrivals dispatch immediately.
  dispatch_pending_ = true;
  flush();
  return id;
}

void SchedulerEngine::release_container(std::size_t container_index) {
  container_attempts_[container_index] = ContainerAttempt{};
  free_containers_.push_back(container_index);
}

std::uint64_t SchedulerEngine::attempt_sequence(int container) const {
  require(container >= 0 && container < config_.capacity,
          "SchedulerEngine::attempt_sequence: container index out of range");
  return container_attempts_[static_cast<std::size_t>(container)].sequence;
}

int SchedulerEngine::running_attempts(const ContainerAttempt& attempt) const {
  int count = 0;
  for (const ContainerAttempt& other : container_attempts_) {
    if (other.same_task(attempt)) ++count;
  }
  return count;
}

void SchedulerEngine::handle_task_finished(const EngineEvent& event) {
  const ContainerAttempt attempt = container_attempts_[static_cast<std::size_t>(event.container)];
  EngineJob& job = *jobs_[static_cast<std::size_t>(attempt.job)];
  release_container(static_cast<std::size_t>(event.container));
  --job.running;

  // The first attempt of a task to finish kills its siblings and releases
  // their containers, so a finishing attempt's task is never already done.
  auto& done = attempt.is_reduce ? job.reduce_done : job.map_done;
  ensure(done[static_cast<std::size_t>(attempt.task_index)] == 0,
         "SchedulerEngine: task finished twice");
  done[static_cast<std::size_t>(attempt.task_index)] = 1;
  ++job.completed;
  if (!attempt.is_reduce) ++job.maps_completed;
  job.sample_sum += event.runtime;
  ++stats_.scheduling_events;

  if (config_.enable_speculation) {
    // Kill the task's other attempts in creation order: each kill pushes a
    // container onto the free stack and emits a trace event, so the order
    // decides later grants.
    std::vector<std::size_t> siblings;
    for (std::size_t c = 0; c < container_attempts_.size(); ++c) {
      if (container_attempts_[c].same_task(attempt)) siblings.push_back(c);
    }
    std::sort(siblings.begin(), siblings.end(), [this](std::size_t a, std::size_t b) {
      return container_attempts_[a].sequence < container_attempts_[b].sequence;
    });
    for (const std::size_t c : siblings) {
      release_container(c);
      --job.running;
      ++stats_.speculative_kills;
      if (observer_ != nullptr) observer_->on_task_killed(now_, job.id, static_cast<int>(c));
    }
  }

  if (observer_ != nullptr) {
    observer_->on_task_finish(now_, job.id, event.container, event.runtime,
                              attempt.is_reduce);
  }

  const bool job_done = (job.completed == job.total_tasks());
  if (job_done) {
    job.finished = true;
    job.completion = now_;
    const auto job_index = static_cast<std::size_t>(job.id);
    active_.erase(std::lower_bound(active_.begin(), active_.end(), job_index));
    if (observer_ != nullptr) {
      observer_->on_job_finish(now_, job.id, job.utility->value(job.completion));
    }
  }

  const ClusterView& view = current_view();
  scheduler_.on_task_finished(view, job.id, event.runtime, attempt.is_reduce);
  if (job_done) scheduler_.on_job_finished(view, job.id);
  // Completions defer their wave to the end of the timestamp batch.
  dispatch_pending_ = true;
}

void SchedulerEngine::handle_container_freed(const EngineEvent& event) {
  const ContainerAttempt attempt = container_attempts_[static_cast<std::size_t>(event.container)];
  EngineJob& job = *jobs_[static_cast<std::size_t>(attempt.job)];
  release_container(static_cast<std::size_t>(event.container));
  --job.running;
  ++job.failures;
  ++stats_.task_failures;
  ++stats_.scheduling_events;

  // Re-queue the task unless another attempt of it is still running.  A
  // running attempt's task is never done (see handle_task_finished).
  auto& done = attempt.is_reduce ? job.reduce_done : job.map_done;
  ensure(done[static_cast<std::size_t>(attempt.task_index)] == 0,
         "SchedulerEngine: failure reported for a completed task");
  if (!config_.enable_speculation || running_attempts(attempt) == 0) {
    (attempt.is_reduce ? job.pending_reduces : job.pending_maps)
        .push_back(attempt.task_index);
  }

  if (observer_ != nullptr) {
    observer_->on_task_failure(now_, job.id, event.container, event.wasted);
  }
  scheduler_.on_task_failed(current_view(), job.id, event.wasted);
  dispatch_pending_ = true;
}

void SchedulerEngine::flush() {
  if (!dispatch_pending_) return;
  dispatch_pending_ = false;
  dispatch();
}

void SchedulerEngine::dispatch() {
  ++stats_.dispatch_waves;
  EngineWave wave;
  wave.now = now_;
  wave.index = stats_.dispatch_waves;
  wave.free_before = static_cast<ContainerCount>(free_containers_.size());

  // All free containers are offered in one call, and only when some job can
  // take one, so a wave with nothing to place builds no view.  Grants apply
  // in handout order; any the scheduler does not make leave containers
  // idle.  Launches only schedule strictly-future events, so nothing
  // intervenes between the handouts of a wave.
  std::vector<JobId> grants;
  if (!free_containers_.empty() &&
      std::any_of(active_.begin(), active_.end(),
                  [this](std::size_t job) { return jobs_[job]->dispatchable() > 0; })) {
    grants = scheduler_.assign_containers(current_view(),
                                          static_cast<int>(free_containers_.size()));
  }
  require(grants.size() <= free_containers_.size(),
          "Scheduler granted more containers than were free");
  for (const JobId id : grants) {
    require(id >= 0 && static_cast<std::size_t>(id) < jobs_.size() &&
                jobs_[static_cast<std::size_t>(id)] != nullptr,
            "Scheduler returned unknown job id");
    const auto job_index = static_cast<std::size_t>(id);
    require(jobs_[job_index]->dispatchable() > 0,
            "Scheduler chose a job with no dispatchable task");
    launch_task(*jobs_[job_index], wave);
  }
  if (config_.enable_speculation) launch_speculative_backups(wave);

  wave.free_after = static_cast<ContainerCount>(free_containers_.size());
  collect_predictions(wave.predictions);
  if (sink_ != nullptr) sink_->on_wave(wave);
}

void SchedulerEngine::launch_task(EngineJob& job, EngineWave& wave) {
  int task_index = -1;
  bool is_reduce = false;
  if (!job.pending_maps.empty()) {
    task_index = job.pending_maps.front();
    job.pending_maps.erase(job.pending_maps.begin());
  } else {
    ensure(job.maps_completed == job.maps_total && !job.pending_reduces.empty(),
           "SchedulerEngine: launch on a job with nothing dispatchable");
    task_index = job.pending_reduces.front();
    job.pending_reduces.erase(job.pending_reduces.begin());
    is_reduce = true;
  }
  start_attempt(job, task_index, is_reduce, wave);
}

void SchedulerEngine::start_attempt(EngineJob& job, int task_index, bool is_reduce,
                                    EngineWave& wave) {
  const std::size_t container_index = free_containers_.back();
  free_containers_.pop_back();
  ++job.running;
  ++stats_.assignments;
  container_attempts_[container_index] =
      ContainerAttempt{job.id, task_index, is_reduce, now_, next_attempt_sequence_++};

  if (observer_ != nullptr) {
    observer_->on_task_start(now_, job.id, static_cast<int>(container_index), is_reduce);
  }
  EngineAssignment assignment;
  assignment.job = job.id;
  assignment.container = static_cast<int>(container_index);
  assignment.task_index = task_index;
  assignment.is_reduce = is_reduce;
  wave.assignments.push_back(assignment);
  if (executor_ != nullptr) executor_->on_assignment(now_, assignment);
}

void SchedulerEngine::launch_speculative_backups(EngineWave& wave) {
  while (!free_containers_.empty()) {
    // The worst straggler: the running attempt with the largest elapsed /
    // mean-runtime ratio strictly above the threshold whose task can take
    // another attempt.  Equal ratios go to the earlier attempt, so the
    // choice does not depend on which container an attempt runs on.
    const ContainerAttempt* straggler = nullptr;
    double worst_ratio = config_.speculation_threshold;
    for (const ContainerAttempt& attempt : container_attempts_) {
      if (attempt.job == kInvalidJob) continue;
      const EngineJob& job = *jobs_[static_cast<std::size_t>(attempt.job)];
      if (job.completed == 0) continue;  // nothing to compare against
      const double mean = job.sample_sum / static_cast<double>(job.completed);
      if (mean <= 0.0) continue;
      const double ratio = (now_ - attempt.start) / mean;
      if (ratio < worst_ratio ||
          (ratio == worst_ratio &&
           (straggler == nullptr || attempt.sequence > straggler->sequence))) {
        continue;
      }
      if (running_attempts(attempt) >= config_.max_attempts_per_task) continue;
      worst_ratio = ratio;
      straggler = &attempt;
    }
    if (straggler == nullptr) return;
    const ContainerAttempt backup = *straggler;
    ++stats_.speculative_attempts;
    start_attempt(*jobs_[static_cast<std::size_t>(backup.job)], backup.task_index,
                  backup.is_reduce, wave);
  }
}

void SchedulerEngine::collect_predictions(std::vector<EnginePrediction>& out) const {
  const auto* rush = dynamic_cast<const RushScheduler*>(&scheduler_);
  if (rush == nullptr) return;
  const Plan& plan = rush->current_plan();
  out.reserve(plan.entries.size());
  for (const PlanEntry& entry : plan.entries) {
    EnginePrediction prediction;
    prediction.id = entry.id;
    prediction.eta = entry.eta;
    prediction.target_completion = entry.target_completion;
    prediction.utility_level = entry.utility_level;
    prediction.impossible = entry.impossible;
    prediction.desired_containers = entry.desired_containers;
    out.push_back(prediction);
  }
}

std::vector<JobRecord> SchedulerEngine::job_records() const {
  std::vector<JobRecord> records;
  records.reserve(jobs_.size());
  for (const auto& job : jobs_) {
    if (job == nullptr) continue;
    JobRecord record;
    record.id = job->id;
    record.name = job->config.name;
    record.arrival = job->config.arrival;
    record.budget = job->config.budget;
    record.priority = job->config.priority;
    record.sensitivity = job->config.sensitivity;
    record.completion = job->completion;
    record.tasks = job->total_tasks();
    record.best_possible_utility = job->utility->value(job->config.arrival);
    record.utility = job->finished ? job->utility->value(job->completion) : 0.0;
    records.push_back(std::move(record));
  }
  return records;
}

// ---------------------------------------------------------------------------
// The scheduler's view: rebuilt from the active jobs on every call
// (DESIGN.md §5e).

void SchedulerEngine::fill_job_view(const EngineJob& job, JobView& view) const {
  view.id = job.id;
  view.arrival = job.config.arrival;
  view.budget_deadline = job.config.arrival + job.config.budget;
  view.priority = job.config.priority;
  view.sensitivity = job.config.sensitivity;
  view.utility = job.utility.get();
  view.total_tasks = job.total_tasks();
  view.completed_tasks = job.completed;
  view.running_tasks = job.running;
  view.dispatchable_tasks = job.dispatchable();
  view.remaining_maps = job.maps_total - job.maps_completed;
  view.remaining_reduces = job.reduces_total - (job.completed - job.maps_completed);
  view.failed_attempts = job.failures;
}

const ClusterView& SchedulerEngine::current_view() {
  ++stats_.view_updates;
  view_.now = now_;
  view_.free_containers = static_cast<ContainerCount>(free_containers_.size());
  view_.jobs.resize(active_.size());
  for (std::size_t slot = 0; slot < active_.size(); ++slot) {
    fill_job_view(*jobs_[active_[slot]], view_.jobs[slot]);
  }
  return view_;
}

// ---------------------------------------------------------------------------
// Snapshot seam.

namespace {
constexpr std::uint8_t kEngineStateVersion = 2;
constexpr char kEngineSection[] = "engine";
constexpr char kSchedulerSection[] = "scheduler";
}  // namespace

void SchedulerEngine::save_state(Snapshot& snapshot) const {
  require(!config_.enable_speculation,
          "SchedulerEngine::save_state: a speculating engine cannot be snapshotted");
  require(!dispatch_pending_,
          "SchedulerEngine::save_state: flush the wave before snapshotting");
  WireWriter out;
  out.put_u8(kEngineStateVersion);
  out.put_double(now_);
  out.put_i64(config_.capacity);

  out.put_u64(free_containers_.size());
  for (const std::size_t c : free_containers_) out.put_u32(static_cast<std::uint32_t>(c));
  for (const ContainerAttempt& attempt : container_attempts_) {
    out.put_i64(attempt.job);
    out.put_i64(attempt.task_index);
    out.put_bool(attempt.is_reduce);
  }

  out.put_u64(jobs_.size());
  for (const auto& job : jobs_) {
    out.put_bool(job != nullptr);
    if (job == nullptr) continue;
    serialize_job_config(job->config, out);
    out.put_i64(job->maps_completed);
    out.put_i64(job->completed);
    out.put_i64(job->running);
    out.put_i64(job->failures);
    out.put_bool(job->finished);
    out.put_double(job->completion);
    for (const char d : job->map_done) out.put_u8(static_cast<std::uint8_t>(d));
    for (const char d : job->reduce_done) out.put_u8(static_cast<std::uint8_t>(d));
    out.put_u64(job->pending_maps.size());
    for (const int t : job->pending_maps) out.put_i64(t);
    out.put_u64(job->pending_reduces.size());
    for (const int t : job->pending_reduces) out.put_i64(t);
  }

  out.put_i64(stats_.scheduling_events);
  out.put_i64(stats_.assignments);
  out.put_i64(stats_.task_failures);
  out.put_i64(stats_.dispatch_waves);
  out.put_i64(stats_.view_updates);
  snapshot.set(kEngineSection, out.take());

  std::string scheduler_blob;
  scheduler_.save_state(scheduler_blob);
  snapshot.set(kSchedulerSection, std::move(scheduler_blob));
}

void SchedulerEngine::restore_state(const Snapshot& snapshot) {
  require(!config_.enable_speculation,
          "SchedulerEngine::restore_state: a speculating engine cannot be restored");
  WireReader in(snapshot.get(kEngineSection));
  const std::uint8_t version = in.get_u8();
  require(version == kEngineStateVersion,
          "SchedulerEngine::restore_state: unsupported engine state version");
  const Seconds now = in.get_double();
  require(std::isfinite(now) && now >= 0.0,
          "SchedulerEngine::restore_state: clock must be finite and non-negative");
  now_ = now;
  const auto capacity = static_cast<ContainerCount>(in.get_i64());
  require(capacity == config_.capacity,
          "SchedulerEngine::restore_state: capacity mismatch");

  // Container and task indices are checked before anything trusts them: a
  // forged one would be granted, or index past a job's task lists.
  const auto capacity_slots = static_cast<std::size_t>(config_.capacity);
  std::vector<char> is_free(capacity_slots, 0);
  free_containers_.clear();
  const std::size_t n_free = in.get_count(4, "SchedulerEngine::restore_state: free containers");
  for (std::size_t i = 0; i < n_free; ++i) {
    const auto c = static_cast<std::size_t>(in.get_u32());
    require(c < capacity_slots,
            "SchedulerEngine::restore_state: free container index out of range");
    require(is_free[c] == 0, "SchedulerEngine::restore_state: free container listed twice");
    is_free[c] = 1;
    free_containers_.push_back(c);
  }
  container_attempts_.assign(static_cast<std::size_t>(config_.capacity), ContainerAttempt{});
  for (ContainerAttempt& attempt : container_attempts_) {
    attempt.job = in.get_i64();
    const std::int64_t task = in.get_i64();
    require(task == static_cast<int>(task),
            "SchedulerEngine::restore_state: attempt task index out of range");
    attempt.task_index = static_cast<int>(task);
    attempt.is_reduce = in.get_bool();
    if (attempt.job != kInvalidJob) attempt.sequence = next_attempt_sequence_++;
  }

  jobs_.clear();
  active_.clear();
  // Each job starts with its presence byte.  Its config and counters are
  // checked before anything is sized from them or trusts them.
  const std::size_t n_jobs = in.get_count(1, "SchedulerEngine::restore_state: jobs");
  jobs_.reserve(n_jobs);
  for (std::size_t i = 0; i < n_jobs; ++i) {
    if (!in.get_bool()) {
      jobs_.push_back(nullptr);
      continue;
    }
    const auto check = [i](bool ok, const char* what) {
      if (!ok) {
        throw InvalidInput("SchedulerEngine::restore_state: job " + std::to_string(i) + " " +
                           what);
      }
    };
    auto job = std::make_unique<EngineJob>();
    job->config = deserialize_job_config(in);
    job->config.validate();
    job->id = static_cast<JobId>(i);
    job->utility = make_utility(job->config.utility_kind,
                                job->config.arrival + job->config.budget,
                                job->config.priority, job->config.beta);
    job->maps_total = job->config.maps;
    job->reduces_total = job->config.reduces;
    // Every task has a done-flag byte below, so the section must hold them.
    check(static_cast<std::size_t>(job->maps_total) +
                  static_cast<std::size_t>(job->reduces_total) <=
              in.remaining(),
          "task count exceeds the section");
    const std::int64_t maps_completed = in.get_i64();
    const std::int64_t completed = in.get_i64();
    const std::int64_t running = in.get_i64();
    const std::int64_t failures = in.get_i64();
    check(maps_completed >= 0 && maps_completed <= job->maps_total,
          "maps_completed out of range");
    check(completed >= maps_completed && completed - maps_completed <= job->reduces_total,
          "completed reduces out of range");
    check(running >= 0 && running <= config_.capacity, "running out of range");
    check(failures >= 0 && failures <= std::numeric_limits<int>::max(),
          "failures out of range");
    job->maps_completed = static_cast<int>(maps_completed);
    job->completed = static_cast<int>(completed);
    job->running = static_cast<int>(running);
    job->failures = static_cast<int>(failures);
    job->finished = in.get_bool();
    job->completion = in.get_double();
    check(job->finished == (job->completed == job->total_tasks()),
          "finished flag must equal completed == total");
    check(std::isfinite(job->completion) == job->finished,
          "completion must be finite exactly when finished");
    job->map_done.assign(static_cast<std::size_t>(job->maps_total), 0);
    for (char& d : job->map_done) d = static_cast<char>(in.get_u8());
    job->reduce_done.assign(static_cast<std::size_t>(job->reduces_total), 0);
    for (char& d : job->reduce_done) d = static_cast<char>(in.get_u8());
    const auto flags_set = [&](const std::vector<char>& done) {
      for (const char d : done) check(d == 0 || d == 1, "done flags must be 0 or 1");
      return std::count(done.begin(), done.end(), 1);
    };
    check(flags_set(job->map_done) == maps_completed &&
              flags_set(job->reduce_done) == completed - maps_completed,
          "done flags must count the completed maps and reduces");
    const std::size_t n_pending_maps =
        in.get_count(8, "SchedulerEngine::restore_state: pending maps");
    for (std::size_t t = 0; t < n_pending_maps; ++t) {
      const std::int64_t task = in.get_i64();
      require(task >= 0 && task < job->maps_total,
              "SchedulerEngine::restore_state: pending map index out of range");
      job->pending_maps.push_back(static_cast<int>(task));
    }
    const std::size_t n_pending_reduces =
        in.get_count(8, "SchedulerEngine::restore_state: pending reduces");
    for (std::size_t t = 0; t < n_pending_reduces; ++t) {
      const std::int64_t task = in.get_i64();
      require(task >= 0 && task < job->reduces_total,
              "SchedulerEngine::restore_state: pending reduce index out of range");
      job->pending_reduces.push_back(static_cast<int>(task));
    }
    if (!job->finished) active_.push_back(i);
    jobs_.push_back(std::move(job));
  }

  std::vector<int> attempts_of(jobs_.size(), 0);
  for (std::size_t c = 0; c < capacity_slots; ++c) {
    const ContainerAttempt& attempt = container_attempts_[c];
    const bool running = attempt.job != kInvalidJob;
    require(running != (is_free[c] != 0),
            "SchedulerEngine::restore_state: container " + std::to_string(c) +
                " must be either free or running an attempt");
    if (!running) continue;
    require(attempt.job >= 0 && static_cast<std::size_t>(attempt.job) < jobs_.size() &&
                jobs_[static_cast<std::size_t>(attempt.job)] != nullptr &&
                !jobs_[static_cast<std::size_t>(attempt.job)]->finished,
            "SchedulerEngine::restore_state: attempt names an unknown or finished job");
    const EngineJob& job = *jobs_[static_cast<std::size_t>(attempt.job)];
    require(attempt.task_index >= 0 &&
                attempt.task_index < (attempt.is_reduce ? job.reduces_total : job.maps_total),
            "SchedulerEngine::restore_state: attempt task index out of range");
    ++attempts_of[static_cast<std::size_t>(attempt.job)];
  }
  for (std::size_t i = 0; i < jobs_.size(); ++i) {
    if (jobs_[i] != nullptr && jobs_[i]->running != attempts_of[i]) {
      throw InvalidInput("SchedulerEngine::restore_state: job " + std::to_string(i) +
                         " running must equal the containers running its attempts");
    }
  }

  stats_.scheduling_events = in.get_i64();
  stats_.assignments = in.get_i64();
  stats_.task_failures = in.get_i64();
  stats_.dispatch_waves = in.get_i64();
  stats_.view_updates = in.get_i64();
  in.expect_end("SchedulerEngine::restore_state");

  scheduler_.restore_state(snapshot.get(kSchedulerSection));
  dispatch_pending_ = false;
}

}  // namespace rush
