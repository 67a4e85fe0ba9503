#include "src/core/rush_planner.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "src/check/invariant_auditor.h"
#include "src/common/error.h"
#include "src/robust/wcde.h"

namespace rush {
namespace {

// rushlint: nondeterminism-ok(PlanStats profiler; stage wall times are reported, never fed back into the plan)
using ProfileClock = std::chrono::steady_clock;

double elapsed_us(ProfileClock::time_point from, ProfileClock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

/// Index of `id` in the sorted entries; the id must be present.
std::size_t entry_index(const Plan& plan, JobId id) {
  const auto it = std::lower_bound(
      plan.entries.begin(), plan.entries.end(), id,
      [](const PlanEntry& e, JobId want) { return e.id < want; });
  ensure(it != plan.entries.end() && it->id == id,
         "RushPlanner: job missing from plan entries");
  return static_cast<std::size_t>(it - plan.entries.begin());
}

}  // namespace

RushPlanner::RushPlanner(RushConfig config) : config_(std::move(config)) {
  config_.validate();
}

void RushPlanner::solve_wcde_stage(const std::vector<PlannerJob>& jobs,
                                   bool audit) const {
  PassScratch& scratch = scratch_;
  const Probability theta = config_.theta_level();

  scratch.job_radius.resize(jobs.size());
  long misses = 0;

  // A job whose demand snapshot (by identity) and radius are the ones the
  // previous pass solved takes that pass's result: theta is fixed per
  // planner and the snapshot is immutable, so the inputs are bit-equal
  // without hashing or comparing PMFs.  Every other job is a miss and gets
  // its own scalar solve, in job order.
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const PlannerJob& job = jobs[i];
    const KlRadius radius = config_.delta_for(job.samples);
    scratch.job_radius[i] = radius;
    const auto memo = std::lower_bound(
        eta_memo_.begin(), eta_memo_.end(), job.id,
        [](const EtaMemo& m, JobId want) { return m.id < want; });
    if (memo != eta_memo_.end() && memo->id == job.id && memo->demand == job.demand &&
        memo->radius == radius) {
      scratch.wcde_of[i] = memo->result;
      if (audit) {
        // The reuse rests on the snapshot never changing in place; hold
        // it to a fresh solve, field by field with ==.
        audit_wcde_reuse(*job.demand, theta, radius, memo->result).throw_if_failed();
      }
      continue;
    }
    scratch.wcde_of[i] = solve_wcde(*job.demand, theta, radius, scratch.wcde_scratch);
    ++misses;
  }

  // Every lookup is done, so the memo is rebuilt in place for the next
  // pass.  It holds exactly this pass's jobs, so a departed job's snapshot
  // is released here.
  eta_memo_.clear();
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    eta_memo_.push_back({jobs[i].id, jobs[i].demand, scratch.job_radius[i],
                         scratch.wcde_of[i]});
  }
  std::sort(eta_memo_.begin(), eta_memo_.end(),
            [](const EtaMemo& a, const EtaMemo& b) { return a.id < b.id; });
  stats_.wcde_cache_hits += static_cast<long>(jobs.size()) - misses;
  stats_.wcde_cache_misses += misses;
  if (audit) {
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      audit_wcde(*jobs[i].demand, theta, scratch.job_radius[i], scratch.wcde_of[i])
          .throw_if_failed();
    }
  }
}

Plan RushPlanner::plan(const std::vector<PlannerJob>& jobs, ContainerCount capacity,
                       Seconds now) const {
  require(capacity > 0, "RushPlanner::plan: capacity must be positive");

  Plan result;
  result.computed_at = now;
  // Debug builds audit unconditionally; release builds opt in per config.
  const bool audit = kDcheckEnabled || config_.audit_invariants;
  PassScratch& scratch = scratch_;
  const auto t_start = ProfileClock::now();

  // Step 1 — WCDE per job.  The solves are decoupled across jobs (§III-A):
  // the stage reuses the previous pass's result per unchanged job and
  // solves the rest (solve_wcde_stage), with results landing in job-order
  // slots.
  for (const PlannerJob& job : jobs) {
    require(job.utility != nullptr, "RushPlanner::plan: job without utility");
    require(job.demand != nullptr, "RushPlanner::plan: job without demand snapshot");
  }
  scratch.wcde_of.resize(jobs.size());
  solve_wcde_stage(jobs, audit);

  scratch.tas_jobs.clear();
  scratch.tas_jobs.reserve(jobs.size());
  result.entries.reserve(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const PlannerJob& job = jobs[i];
    PlanEntry entry;
    entry.id = job.id;
    entry.eta = scratch.wcde_of[i].eta;
    result.entries.push_back(entry);

    TasJob tj;
    tj.id = job.id;
    tj.eta = scratch.wcde_of[i].eta;
    tj.avg_task_runtime = job.mean_runtime;
    tj.utility = job.utility;
    scratch.tas_jobs.push_back(tj);
  }
  // Keep entries sorted by id so every later lookup — including the
  // scheduler's per-grant Plan::find — is a binary search.
  std::sort(result.entries.begin(), result.entries.end(),
            [](const PlanEntry& a, const PlanEntry& b) { return a.id < b.id; });
  for (std::size_t i = 1; i < result.entries.size(); ++i) {
    require(result.entries[i - 1].id != result.entries[i].id,
            "RushPlanner::plan: duplicate job id");
  }
  scratch.entry_runtime.resize(result.entries.size());
  for (const TasJob& tj : scratch.tas_jobs) {
    scratch.entry_runtime[entry_index(result, tj.id)] = tj.avg_task_runtime;
  }
  const auto t_wcde = ProfileClock::now();

  // Step 2 — onion peeling for target completion times.  The previous
  // pass's layer levels seed each layer's search (DESIGN.md §5d); every
  // layer ends on the same k-section grid, so the targets are bit-for-bit
  // those of a hint-less peel.  The first pass has no hint.
  OnionPeelingConfig peel_config;
  peel_config.tolerance = config_.peel_tolerance;
  if (!peel_hint_.empty()) peel_config.warm_hint = &peel_hint_;
  TasResult tas = onion_peel(scratch.tas_jobs, capacity, now, peel_config);
  result.peel_probes = tas.probes;
  peel_hint_ = std::move(tas.hint);
  if (audit) {
    audit_tas(tas, scratch.tas_jobs, capacity, now).throw_if_failed();
  }
  const auto t_peel = ProfileClock::now();

  // Steps 3–4 — head-of-queue census: how many of Algorithm 4's queues
  // each job heads, which is the allocation RUSH wants it to converge to.
  scratch.mapping_jobs.clear();
  scratch.mapping_jobs.reserve(tas.targets.size());
  for (const TasTarget& target : tas.targets) {
    const std::size_t index = entry_index(result, target.id);
    PlanEntry& entry = result.entries[index];
    entry.target_completion = target.target_completion;
    entry.utility_level = target.utility_level;
    entry.impossible = target.impossible;

    MappingJob mj;
    mj.id = target.id;
    mj.deadline = target.mapping_deadline;
    mj.eta = entry.eta;
    mj.task_runtime = scratch.entry_runtime[index];
    scratch.mapping_jobs.push_back(mj);
  }
  count_queue_heads(scratch.mapping_jobs, capacity, now, scratch.census);
  for (std::size_t i = 0; i < scratch.mapping_jobs.size(); ++i) {
    const int heads = scratch.census.heads[i];
    if (heads == 0) continue;
    result.entries[entry_index(result, scratch.mapping_jobs[i].id)].desired_containers =
        heads;
  }
  if (audit) {
    // Algorithm 4's full packing, run and audited in src/check, is the
    // census's reference: every job must head the same queues there.
    audit_queue_heads(scratch.mapping_jobs, capacity, now, scratch.census.heads)
        .throw_if_failed();
  }
  const auto t_map = ProfileClock::now();

  stats_.passes += 1;
  stats_.wcde_us += elapsed_us(t_start, t_wcde);
  stats_.peel_us += elapsed_us(t_wcde, t_peel);
  stats_.map_us += elapsed_us(t_peel, t_map);
  stats_.peel_probes += tas.probes;
  stats_.warm_layers += tas.warm_layers;

  return result;
}

void RushPlanner::save_warm_state(WireWriter& out) const {
  // rushlint-schema-owner: kSchedulerStateVersion
  out.put_u64(peel_hint_.size());
  for (const PeelHintEntry& entry : peel_hint_) {
    out.put_i64(entry.id);
    out.put_double(entry.level);
    out.put_double(entry.completion);
  }
}

void RushPlanner::restore_warm_state(WireReader& in) {
  // Each entry is an i64 and two doubles.
  const std::size_t n = in.get_count(24, "RushPlanner::restore_warm_state: peel hint");
  peel_hint_.clear();
  peel_hint_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    PeelHintEntry entry;
    entry.id = in.get_i64();
    entry.level = in.get_double();
    entry.completion = in.get_double();
    peel_hint_.push_back(entry);
  }
  // The WCDE memo is rebuilt by the next pass; dropping it forces that
  // pass to re-solve every job, which is bit-identical anyway.
  eta_memo_.clear();
}

}  // namespace rush
