#include "src/core/rush_scheduler.h"

#include <algorithm>
#include <iterator>
#include <vector>

#include "src/check/elision_audit.h"
#include "src/common/error.h"
#include "src/common/wire.h"
#include "src/robust/eta_drift.h"

namespace rush {

namespace {
/// Format version of the RushScheduler state blob (DESIGN.md §5j: bump on
/// any layout change; readers reject versions they do not know).
constexpr std::uint8_t kSchedulerStateVersion = 1;
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

DistributionEstimator& RushScheduler::estimator_for(JobId job) {
  auto it = estimators_.find(job);
  if (it == estimators_.end()) {
    it = estimators_.emplace(job, make_estimator(config_.estimator_kind, effective_prior()))
             .first;
  }
  return *it->second;
}

void RushScheduler::on_job_arrival(const ClusterView& /*view*/, JobId job) {
  estimator_for(job);
  plan_dirty_ = true;
}

void RushScheduler::on_task_finished(const ClusterView& /*view*/, JobId job,
                                     Seconds runtime, bool is_reduce) {
  estimator_for(job).observe(runtime);
  if (config_.phase_aware_estimation) {
    auto it = phase_estimators_.find(job);
    if (it == phase_estimators_.end()) {
      it = phase_estimators_.emplace(job, PhaseAwareEstimator(effective_prior())).first;
    }
    it->second.observe(runtime, is_reduce);
  }
  global_runtimes_.add(runtime);
  stale_snapshots_.insert(job);
  plan_dirty_ = true;
}

void RushScheduler::on_task_failed(const ClusterView& /*view*/, JobId /*job*/,
                                   Seconds /*wasted*/) {
  // The wasted attempt is not a runtime sample, but the job's remaining
  // demand just changed (the task is pending again), so replan.
  plan_dirty_ = true;
}

void RushScheduler::on_job_finished(const ClusterView& /*view*/, JobId job) {
  estimators_.erase(job);
  phase_estimators_.erase(job);
  demand_snapshots_.erase(job);
  stale_snapshots_.erase(job);
  plan_dirty_ = true;
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

  // Hash maps serialize through a sorted key list so the blob is a pure
  // function of the state (rushlint D2: no hash-order dependence).
  std::vector<JobId> ids;
  ids.reserve(estimators_.size());
  std::transform(estimators_.begin(), estimators_.end(), std::back_inserter(ids),
                 [](const auto& kv) { return kv.first; });
  std::sort(ids.begin(), ids.end());
  out.put_u64(ids.size());
  for (const JobId id : ids) {
    out.put_i64(id);
    estimators_.at(id)->save_state(out);
  }

  ids.clear();
  std::transform(phase_estimators_.begin(), phase_estimators_.end(),
                 std::back_inserter(ids), [](const auto& kv) { return kv.first; });
  std::sort(ids.begin(), ids.end());
  out.put_u64(ids.size());
  for (const JobId id : ids) {
    out.put_i64(id);
    phase_estimators_.at(id).save_state(out);
  }

  ids.assign(stale_snapshots_.begin(), stale_snapshots_.end());
  std::sort(ids.begin(), ids.end());
  out.put_u64(ids.size());
  for (const JobId id : ids) out.put_i64(id);

  planner_.save_warm_state(out);
  blob = out.take();
}

void RushScheduler::restore_state(const std::string& blob) {
  WireReader in(blob);
  const std::uint8_t version = in.get_u8();
  require(version == kSchedulerStateVersion,
          "RushScheduler::restore_state: unsupported state version");
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
  global_runtimes_.restore_raw(g_count, g_mean, g_m2);

  estimators_.clear();
  const auto n_estimators = static_cast<std::size_t>(in.get_u64());
  for (std::size_t i = 0; i < n_estimators; ++i) {
    const JobId id = in.get_i64();
    auto estimator = make_estimator(config_.estimator_kind, config_.prior);
    estimator->restore_state(in);
    estimators_.emplace(id, std::move(estimator));
  }

  phase_estimators_.clear();
  const auto n_phase = static_cast<std::size_t>(in.get_u64());
  for (std::size_t i = 0; i < n_phase; ++i) {
    const JobId id = in.get_i64();
    PhaseAwareEstimator estimator{config_.prior};
    estimator.restore_state(in);
    phase_estimators_.emplace(id, std::move(estimator));
  }

  stale_snapshots_.clear();
  const auto n_stale = static_cast<std::size_t>(in.get_u64());
  for (std::size_t i = 0; i < n_stale; ++i) stale_snapshots_.insert(in.get_i64());

  planner_.restore_warm_state(in);
  in.expect_end("RushScheduler::restore_state");

  // Derived state rebuilds deterministically on the next wave: demand
  // snapshots are pinned by (samples, remaining tasks) and the plan is a
  // pure function of the view plus the state restored above.
  demand_snapshots_.clear();
  plan_ = Plan{};
  plan_dirty_ = true;
  plans_computed_ = 0;
  plan_valid_at_ = -1.0;
  planned_runtime_.clear();
  planned_capacity_ = 0;
  stale_scratch_.clear();
}

const RushScheduler::DemandSnapshot& RushScheduler::snapshot_for(const JobView& jv) {
  // Fast path: a job not in the stale set cannot have new samples or changed
  // remaining-task counts (on_task_finished is the only hook that moves
  // either key), so its cached snapshot is reusable without touching the
  // estimator at all.  The DCHECK below proves the set is exact by
  // re-deriving the seed freshness keys.
  {
    const auto cached = demand_snapshots_.find(jv.id);
    if (cached != demand_snapshots_.end() && cached->second.demand != nullptr &&
        stale_snapshots_.count(jv.id) == 0) {
      if constexpr (kDcheckEnabled) {
        const auto check_it = config_.phase_aware_estimation
                                  ? phase_estimators_.find(jv.id)
                                  : phase_estimators_.end();
        const std::size_t check_samples = check_it != phase_estimators_.end()
                                              ? check_it->second.sample_count()
                                              : estimator_for(jv.id).sample_count();
        RUSH_DCHECK(cached->second.samples == check_samples,
                    "RushScheduler: stale-snapshot set missed a new sample");
        RUSH_DCHECK(cached->second.remaining_maps == jv.remaining_maps &&
                        cached->second.remaining_reduces == jv.remaining_reduces,
                    "RushScheduler: stale-snapshot set missed a demand change");
      }
      return cached->second;
    }
  }

  const auto phase_it = config_.phase_aware_estimation ? phase_estimators_.find(jv.id)
                                                       : phase_estimators_.end();
  const bool phase_aware = phase_it != phase_estimators_.end();
  const std::size_t samples = phase_aware
                                  ? phase_it->second.sample_count()
                                  : estimator_for(jv.id).sample_count();
  DemandSnapshot& snapshot = demand_snapshots_[jv.id];
  const bool fresh = snapshot.demand != nullptr && snapshot.samples == samples &&
                     snapshot.remaining_maps == jv.remaining_maps &&
                     snapshot.remaining_reduces == jv.remaining_reduces;
  if (!fresh) {
    if (phase_aware) {
      const PhaseAwareEstimator& phase = phase_it->second;
      snapshot.mean_runtime = phase.mean_runtime(jv.remaining_maps, jv.remaining_reduces);
      snapshot.demand = std::make_shared<const QuantizedPmf>(
          phase.remaining_demand(jv.remaining_maps, jv.remaining_reduces, config_.bins));
    } else {
      DistributionEstimator& estimator = estimator_for(jv.id);
      snapshot.mean_runtime = estimator.mean_runtime();
      snapshot.demand = std::make_shared<const QuantizedPmf>(
          estimator.remaining_demand(jv.remaining_tasks(), config_.bins));
    }
    snapshot.samples = samples;
    snapshot.remaining_maps = jv.remaining_maps;
    snapshot.remaining_reduces = jv.remaining_reduces;
  }
  stale_snapshots_.erase(jv.id);
  return snapshot;
}

std::vector<PlannerJob> RushScheduler::planner_jobs(const ClusterView& view) {
  std::vector<PlannerJob> jobs;
  jobs.reserve(view.jobs.size());
  for (const JobView& jv : view.jobs) {
    const DemandSnapshot& snapshot = snapshot_for(jv);
    PlannerJob pj;
    pj.id = jv.id;
    pj.mean_runtime = snapshot.mean_runtime;
    pj.samples = snapshot.samples;
    pj.demand = snapshot.demand;  // shared, not copied
    pj.utility = jv.utility;
    jobs.push_back(std::move(pj));
  }
  return jobs;
}

void RushScheduler::rebuild_plan(const ClusterView& view) {
  const std::vector<PlannerJob> jobs = planner_jobs(view);
  plan_ = planner_.plan(jobs, view.capacity, view.now);
  ++plans_computed_;
  plan_dirty_ = false;
  // Capture the inputs the plan consumed for the elision gate: snapshot_for
  // refreshes snapshots in place, so a later gate check cannot recover them
  // from the snapshot cache.  view.jobs ascends by id and plan entries are
  // sorted by id, so the two stay index-aligned.
  plan_valid_at_ = view.now;
  planned_capacity_ = view.capacity;
  planned_runtime_.resize(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    RUSH_DCHECK(plan_.entries[i].id == jobs[i].id,
                "RushScheduler: plan entries not aligned with view order");
    planned_runtime_[i] = jobs[i].mean_runtime;
  }
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
}

bool RushScheduler::try_elide(const ClusterView& view) {
  if (!config_.replan_elision || plans_computed_ == 0) return false;
  const double tolerance = config_.replan_eta_tolerance;
  // Tolerance 0 promises a byte-identical wave, and planner determinism
  // only gives that over identical inputs INCLUDING the pass timestamp:
  // slot mapping packs queues starting at `now`, so the same inputs at a
  // later `now` can shift a queue head — and with it one grant.
  if (tolerance <= 0.0 && plan_.computed_at != view.now) return false;
  if (planned_capacity_ != view.capacity) return false;
  // Structural match: the cached plan must cover exactly the view's jobs
  // (both sides ascend by id).  Any arrival or departure forces a pass.
  if (plan_.entries.size() != view.jobs.size()) return false;
  for (std::size_t i = 0; i < view.jobs.size(); ++i) {
    if (plan_.entries[i].id != view.jobs[i].id) return false;
  }

  // Drift check over exactly the stale set: a job outside it cannot have
  // new samples or changed remaining-task counts (the snapshot_for DCHECK
  // proves the set exact), so its eta and mean runtime are bit-unchanged.
  // Sorted for deterministic iteration; early-outs only leave some
  // snapshots refreshed ahead of the pass that then runs, which is
  // semantically neutral (snapshots are pinned by their freshness keys).
  stale_scratch_.assign(stale_snapshots_.begin(), stale_snapshots_.end());
  std::sort(stale_scratch_.begin(), stale_scratch_.end());
  for (JobId id : stale_scratch_) {
    const auto it = std::lower_bound(
        view.jobs.begin(), view.jobs.end(), id,
        [](const JobView& j, JobId want) { return j.id < want; });
    if (it == view.jobs.end() || it->id != id) return false;
    const auto index = static_cast<std::size_t>(it - view.jobs.begin());
    const DemandSnapshot& snapshot = snapshot_for(*it);
    // The planner consumes mean runtime alongside eta (deadline
    // compensation, slot packing), so the gate must hold both still.
    if (!eta_within_tolerance(planned_runtime_[index], snapshot.mean_runtime,
                              tolerance)) {
      return false;
    }
    PlannerJob pj;
    pj.id = id;
    pj.mean_runtime = snapshot.mean_runtime;
    pj.samples = snapshot.samples;
    pj.demand = snapshot.demand;
    pj.utility = it->utility;
    if (!eta_within_tolerance(plan_.entries[index].eta, planner_.solve_eta(pj),
                              tolerance)) {
      return false;
    }
  }

  // Debug builds (and audit_invariants) prove the elision before trusting
  // it: a throwaway planner recomputes the plan from scratch — empty memo,
  // cold peel, both bit-exact against the warm path — and the audit holds
  // the cached plan to it (byte-equal at tolerance 0).
  if (kDcheckEnabled || config_.audit_invariants) {
    const RushPlanner fresh_planner(config_);
    const Plan fresh = fresh_planner.plan(planner_jobs(view), view.capacity, view.now);
    audit_elision(plan_, fresh, tolerance).throw_if_failed();
  }
  planner_.record_elided_pass();
  plan_dirty_ = false;
  plan_valid_at_ = view.now;
  return true;
}

void RushScheduler::ensure_plan(const ClusterView& view) {
  // Clean plan already validated for this wave (by the pass that built it
  // or by a previous elision at this timestamp): nothing to do.
  if (!plan_dirty_ && (plan_.computed_at == view.now || plan_valid_at_ == view.now)) {
    return;
  }
  if (try_elide(view)) return;
  rebuild_plan(view);
}

std::vector<JobId> RushScheduler::assign_containers(const ClusterView& view,
                                                    int count) {
  std::vector<JobId> grants;
  if (count <= 0) return grants;
  grants.reserve(static_cast<std::size_t>(count));
  ensure_plan(view);

  // One gap-rule pass per handout, against local allocation counts: the
  // plan is fixed for the wave, and a grant changes exactly running+1 /
  // dispatchable-1 of the granted job.  Ties go to the earlier target
  // completion.  Jobs that arrived after the cached plan have no entry yet
  // and count as wanting one container, so they are not starved until the
  // next replan; among them the first encountered (lowest id) wins.  Some
  // dispatchable job always gets the container (work-conserving).
  const std::size_t n = view.jobs.size();
  std::vector<int> running(n);
  std::vector<int> dispatchable(n);
  std::vector<const PlanEntry*> entries(n);
  for (std::size_t j = 0; j < n; ++j) {
    running[j] = view.jobs[j].running_tasks;
    dispatchable[j] = view.jobs[j].dispatchable_tasks;
    entries[j] = plan_.find(view.jobs[j].id);
  }
  for (int c = 0; c < count; ++c) {
    const PlanEntry* best_entry = nullptr;
    std::size_t best = n;
    int best_gap = 0;
    for (std::size_t j = 0; j < n; ++j) {
      if (dispatchable[j] <= 0) continue;
      const PlanEntry* entry = entries[j];
      const int desired = entry != nullptr ? entry->desired_containers : 1;
      const int gap = desired - running[j];
      const bool better =
          best == n || gap > best_gap ||
          (gap == best_gap && entry != nullptr && best_entry != nullptr &&
           entry->target_completion < best_entry->target_completion);
      if (better) {
        best_entry = entry;
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
