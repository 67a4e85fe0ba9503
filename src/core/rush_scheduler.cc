#include "src/core/rush_scheduler.h"

#include <algorithm>
#include <vector>

#include "src/common/error.h"
#include "src/common/wire.h"

namespace rush {

namespace {
/// Format version of the RushScheduler state blob (DESIGN.md §5j: bump on
/// any layout change; readers reject versions they do not know).
constexpr std::uint8_t kSchedulerStateVersion = 2;

/// First record whose id is not below `id` in records sorted by id.
template <typename Records>
auto lower_bound_id(Records& records, JobId id) {
  return std::lower_bound(records.begin(), records.end(), id,
                          [](const auto& record, JobId want) { return record.id < want; });
}
}  // namespace

RushScheduler::RushScheduler(RushConfig config)
    : config_(std::move(config)), planner_(config_) {
  config_.validate();
}

EstimatorPrior RushScheduler::effective_prior() const {
  EstimatorPrior prior = config_.prior;
  // Once the cluster has seen enough completed tasks overall, new jobs start
  // from cluster-wide statistics instead of the static default — the same
  // black-box learning spirit as the per-job DE, one level up.
  if (global_runtimes_.count() >= config_.prior.min_samples && global_runtimes_.mean() > 0.0) {
    prior.mean_runtime = global_runtimes_.mean();
    prior.stddev_runtime = std::max(global_runtimes_.stddev(),
                                    0.1 * global_runtimes_.mean());
  }
  return prior;
}

RushScheduler::JobState& RushScheduler::state_of(JobId job) {
  auto it = lower_bound_id(jobs_, job);
  if (it == jobs_.end() || it->id != job) {
    JobState state;
    state.id = job;
    state.estimator = make_estimator(config_.estimator_kind, effective_prior());
    it = jobs_.insert(it, std::move(state));
  }
  return *it;
}

void RushScheduler::on_job_arrival(const ClusterView& /*view*/, JobId job) {
  state_of(job);
}

void RushScheduler::on_task_finished(const ClusterView& /*view*/, JobId job,
                                     Seconds runtime, bool is_reduce) {
  JobState& state = state_of(job);
  state.estimator->observe(runtime);
  if (config_.phase_aware_estimation) {
    if (!state.phase) state.phase.emplace(effective_prior());
    state.phase->observe(runtime, is_reduce);
  }
  global_runtimes_.add(runtime);
}

void RushScheduler::on_job_finished(const ClusterView& /*view*/, JobId job) {
  const auto it = lower_bound_id(jobs_, job);
  if (it != jobs_.end() && it->id == job) jobs_.erase(it);
}

void RushScheduler::save_state(std::string& blob) const {
  WireWriter out;
  out.put_u8(kSchedulerStateVersion);
  // Configuration fingerprint: restore only makes sense into a scheduler
  // whose estimators are built the same way.
  out.put_string(config_.estimator_kind);
  out.put_bool(config_.phase_aware_estimation);

  out.put_u64(global_runtimes_.count());
  out.put_double(global_runtimes_.mean());
  out.put_double(global_runtimes_.m2());

  // The records ascend by id, so the blob is a pure function of the state.
  out.put_u64(jobs_.size());
  for (const JobState& state : jobs_) {
    out.put_i64(state.id);
    state.estimator->save_state(out);
  }
  out.put_u64(static_cast<std::uint64_t>(std::count_if(
      jobs_.begin(), jobs_.end(), [](const JobState& state) { return state.phase.has_value(); })));
  for (const JobState& state : jobs_) {
    if (!state.phase) continue;
    out.put_i64(state.id);
    state.phase->save_state(out);
  }

  planner_.save_warm_state(out);
  blob = out.take();
}

void RushScheduler::restore_state(const std::string& blob) {
  WireReader in(blob);
  const std::uint8_t version = in.get_u8();
  require(version == kSchedulerStateVersion,
          "RushScheduler::restore_state: unsupported scheduler state version");
  const std::string kind = in.get_string();
  require(kind == config_.estimator_kind,
          "RushScheduler::restore_state: estimator kind mismatch (saved '" + kind +
              "', configured '" + config_.estimator_kind + "')");
  const bool phase_aware = in.get_bool();
  require(phase_aware == config_.phase_aware_estimation,
          "RushScheduler::restore_state: phase-aware flag mismatch");

  const auto g_count = static_cast<std::size_t>(in.get_u64());
  const double g_mean = in.get_double();
  const double g_m2 = in.get_double();
  require_restorable_moments(g_count, g_mean, g_m2, "RushScheduler::restore_state: global",
                             "m2");
  global_runtimes_.restore_raw(g_count, g_mean, g_m2);

  // save_state writes both id lists strictly ascending, and a phase
  // estimator only beside its job's estimator; anything else is forged.
  jobs_.clear();
  const auto n_estimators = static_cast<std::size_t>(in.get_u64());
  for (std::size_t i = 0; i < n_estimators; ++i) {
    JobState state;
    state.id = in.get_i64();
    require(i == 0 || state.id > jobs_.back().id,
            "RushScheduler::restore_state: estimator ids must be strictly ascending");
    state.estimator = make_estimator(config_.estimator_kind, config_.prior);
    state.estimator->restore_state(in);
    jobs_.push_back(std::move(state));
  }

  JobId previous_id = kInvalidJob;
  const auto n_phase = static_cast<std::size_t>(in.get_u64());
  require(n_phase == 0 || phase_aware,
          "RushScheduler::restore_state: phase estimators without phase-aware estimation");
  for (std::size_t i = 0; i < n_phase; ++i) {
    const JobId id = in.get_i64();
    require(i == 0 || id > previous_id,
            "RushScheduler::restore_state: phase estimator ids must be strictly ascending");
    previous_id = id;
    const auto it = lower_bound_id(jobs_, id);
    require(it != jobs_.end() && it->id == id,
            "RushScheduler::restore_state: phase estimator id names no estimator");
    it->phase.emplace(config_.prior);
    it->phase->restore_state(in);
  }

  planner_.restore_warm_state(in);
  in.expect_end("RushScheduler::restore_state");
  // The records start without demand snapshots, so the first wave rebuilds
  // every one from the restored estimators and the view.
  plan_ = Plan{};
}

void RushScheduler::refresh_demand(JobState& state, const JobView& jv) const {
  const PhaseAwareEstimator* phase = state.phase ? &*state.phase : nullptr;
  const std::size_t samples =
      phase != nullptr ? phase->sample_count() : state.estimator->sample_count();
  if (state.demand != nullptr && state.samples == samples &&
      state.remaining_maps == jv.remaining_maps &&
      state.remaining_reduces == jv.remaining_reduces) {
    return;
  }
  if (phase != nullptr) {
    state.mean_runtime = phase->mean_runtime(jv.remaining_maps, jv.remaining_reduces);
    state.demand = std::make_shared<const QuantizedPmf>(
        phase->remaining_demand(jv.remaining_maps, jv.remaining_reduces, config_.bins));
  } else {
    state.mean_runtime = state.estimator->mean_runtime();
    state.demand = std::make_shared<const QuantizedPmf>(
        state.estimator->remaining_demand(jv.remaining_tasks(), config_.bins));
  }
  state.samples = samples;
  state.remaining_maps = jv.remaining_maps;
  state.remaining_reduces = jv.remaining_reduces;
}

std::vector<JobId> RushScheduler::assign_containers(const ClusterView& view,
                                                    int count) {
  std::vector<JobId> grants;
  if (count <= 0) return grants;
  grants.reserve(static_cast<std::size_t>(count));

  // One planning pass per wave, over every job of the view.
  std::vector<PlannerJob> jobs;
  jobs.reserve(view.jobs.size());
  for (const JobView& jv : view.jobs) {
    JobState& state = state_of(jv.id);
    refresh_demand(state, jv);
    PlannerJob pj;
    pj.id = jv.id;
    pj.mean_runtime = state.mean_runtime;
    pj.samples = state.samples;
    pj.demand = state.demand;  // shared, not copied
    pj.utility = jv.utility;
    jobs.push_back(std::move(pj));
  }
  plan_ = planner_.plan(jobs, view.capacity, view.now);
  if constexpr (kDcheckEnabled) {
    int desired_total = 0;
    for (const PlanEntry& entry : plan_.entries) {
      RUSH_DCHECK(entry.desired_containers >= 0,
                  "RushScheduler: negative desired container count");
      RUSH_DCHECK(entry.eta >= 0.0, "RushScheduler: negative robust demand");
      desired_total += entry.desired_containers;
    }
    RUSH_DCHECK(desired_total <= view.capacity,
                "RushScheduler: plan wants more containers than the cluster has");
  }

  // One gap-rule pass per handout, against local allocation counts: the
  // plan is fixed for the wave, and a grant changes exactly running+1 /
  // dispatchable-1 of the granted job.  Ties go to the earlier target
  // completion, then to the first encountered (lowest id).  Some
  // dispatchable job always gets the container (work-conserving).
  const std::size_t n = view.jobs.size();
  std::vector<int> running(n);
  std::vector<int> dispatchable(n);
  std::vector<const PlanEntry*> entries(n);
  for (std::size_t j = 0; j < n; ++j) {
    running[j] = view.jobs[j].running_tasks;
    dispatchable[j] = view.jobs[j].dispatchable_tasks;
    entries[j] = plan_.find(view.jobs[j].id);
    ensure(entries[j] != nullptr, "RushScheduler: job missing from the wave's plan");
  }
  for (int c = 0; c < count; ++c) {
    std::size_t best = n;
    int best_gap = 0;
    for (std::size_t j = 0; j < n; ++j) {
      if (dispatchable[j] <= 0) continue;
      const int gap = entries[j]->desired_containers - running[j];
      const bool better =
          best == n || gap > best_gap ||
          (gap == best_gap &&
           entries[j]->target_completion < entries[best]->target_completion);
      if (better) {
        best = j;
        best_gap = gap;
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
