#include "src/engine/simulation.h"

#include "src/engine/replay.h"

namespace rush {

namespace {

/// The submission-time view of a JobSpec in the event vocabulary.  Task
/// nominal runtimes are physics and stay in the simulation; the config
/// carries the mean as its representative task_seconds.
JobConfig to_job_config(const JobSpec& spec) {
  JobConfig config;
  config.name = spec.name;
  config.budget = spec.budget;
  config.priority = spec.priority;
  config.beta = spec.beta;
  config.utility_kind = spec.utility_kind;
  config.sensitivity = spec.sensitivity;
  config.arrival = spec.arrival;
  config.maps = 0;  // count from zero, not the struct's one-map default
  config.reduces = 0;
  for (const TaskSpec& task : spec.tasks) {
    (task.is_reduce ? config.reduces : config.maps) += 1;
  }
  config.task_seconds = spec.total_nominal_work() / spec.task_count();
  return config;
}

}  // namespace

EngineConfig EngineSimulation::engine_config(const ClusterConfig& config) {
  ContainerCount capacity = 0;
  for (const Node& node : config.nodes) capacity += node.containers;
  return EngineConfig{.capacity = capacity,
                      .enable_speculation = config.enable_speculation,
                      .speculation_threshold = config.speculation_threshold,
                      .max_attempts_per_task = config.max_attempts_per_task};
}

EngineSimulation::EngineSimulation(ClusterConfig config, Scheduler& scheduler)
    : config_(std::move(config)),
      engine_(engine_config(config_), scheduler),
      rng_(config_.seed) {
  require(!config_.nodes.empty(), "EngineSimulation: need at least one node");
  // An attempt that always fails would retry until max_time.
  require(config_.task_failure_probability >= 0.0 &&
              config_.task_failure_probability < 1.0,
          "EngineSimulation: task failure probability must be in [0, 1)");
  // Containers materialize per node in declaration order.
  for (const Node& node : config_.nodes) {
    require(node.containers > 0, "EngineSimulation: node with no containers");
    require(node.speed_factor > 0.0, "EngineSimulation: non-positive speed factor");
    container_speed_.insert(container_speed_.end(),
                            static_cast<std::size_t>(node.containers), node.speed_factor);
  }
  engine_.set_executor(this);
}

JobId EngineSimulation::submit(JobSpec spec) {
  require(!ran_, "EngineSimulation::submit: simulation already ran");
  require(spec.task_count() > 0, "EngineSimulation::submit: job has no tasks");
  require(spec.arrival >= 0.0, "EngineSimulation::submit: negative arrival");
  SimJob job;
  for (const TaskSpec& task : spec.tasks) {
    require(task.nominal_runtime > 0.0,
            "EngineSimulation::submit: task runtime must be positive");
    (task.is_reduce ? job.reduce_nominal : job.map_nominal)
        .push_back(task.nominal_runtime);
  }
  job.config = to_job_config(spec);
  job.config.validate();
  jobs_.push_back(std::move(job));
  return static_cast<JobId>(jobs_.size() - 1);
}

RunResult EngineSimulation::run() {
  require(!ran_, "EngineSimulation::run: simulation already ran");
  ran_ = true;

  sim_.set_wave_end([this] { engine_.flush(); });
  for (std::size_t i = 0; i < jobs_.size(); ++i) {
    sim_.schedule_at(jobs_[i].config.arrival, [this, i] {
      engine_.process(
          make_job_submitted(sim_.now(), static_cast<JobId>(i), jobs_[i].config));
    });
  }
  sim_.run(config_.max_time);
  return engine_run_result(engine_);
}

void EngineSimulation::on_assignment(Seconds /*now*/, const EngineAssignment& assignment) {
  const SimJob& job = jobs_[static_cast<std::size_t>(assignment.job)];
  const std::vector<Seconds>& nominals =
      assignment.is_reduce ? job.reduce_nominal : job.map_nominal;
  const Seconds nominal = nominals[static_cast<std::size_t>(assignment.task_index)];
  const double speed = container_speed_[static_cast<std::size_t>(assignment.container)];
  // Draw order per attempt: noise, failure coin, wasted fraction.
  const double noise = config_.runtime_noise_sigma > 0.0
                           ? rng_.lognormal_noise(config_.runtime_noise_sigma)
                           : 1.0;
  const Seconds runtime = nominal * speed * noise;
  const bool fails = config_.task_failure_probability > 0.0 &&
                     rng_.uniform() < config_.task_failure_probability;
  const int container = assignment.container;
  // The outcome of a killed attempt is dropped: its container no longer
  // runs it (and may run a newer attempt).
  const std::uint64_t attempt = engine_.attempt_sequence(container);
  if (fails) {
    const Seconds wasted = runtime * rng_.uniform(0.1, 0.9);
    sim_.schedule_after(wasted, [this, container, attempt, wasted] {
      if (engine_.attempt_sequence(container) != attempt) return;
      engine_.process(make_container_freed(sim_.now(), container, wasted));
    });
    return;
  }
  sim_.schedule_after(runtime, [this, container, attempt, runtime] {
    if (engine_.attempt_sequence(container) != attempt) return;
    engine_.process(make_task_finished(sim_.now(), container, runtime));
  });
}

}  // namespace rush
