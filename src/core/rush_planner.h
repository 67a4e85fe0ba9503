// The Container Assignment decision path (paper §IV, "CA unit"), factored
// out of the scheduler so it can be unit-tested and benchmarked in
// isolation (Fig 5 measures exactly this computation).
//
// One planning pass = the full feedback-cycle recomputation:
//   1. WCDE per job: reference demand PMF -> robust demand eta_i,
//   2. onion peeling: eta_i + utilities -> target completion times,
//   3-4. head-of-queue census: how many of the per-container queues of
//      Algorithm 4 (continuous time slot mapping) each job heads, which is
//      how many containers it should hold next.  The queues themselves are
//      not built; audited passes build them with the reference mapper in
//      src/check and compare.

#pragma once

#include <algorithm>
#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

#include "src/common/types.h"
#include "src/common/wire.h"
#include "src/core/rush_config.h"
#include "src/robust/wcde.h"
#include "src/stats/pmf.h"
#include "src/tas/onion_peeling.h"
#include "src/tas/slot_mapping.h"
#include "src/utility/utility_function.h"

namespace rush {

/// One job as seen by the planner: estimator outputs plus utility.
struct PlannerJob {
  JobId id = kInvalidJob;
  /// Reference PMF phi of the remaining demand (container-seconds), held as
  /// a shared immutable snapshot: passing a job through consecutive planning
  /// passes (and through admission what-if copies) shares one allocation
  /// instead of copying O(PMF support) per pass.  Must be non-null when the
  /// job is handed to the planner, and never modified afterwards: a planner
  /// reuses the job's previous WCDE result while the pointer is unchanged
  /// (set_demand builds a new snapshot instead).
  std::shared_ptr<const QuantizedPmf> demand;
  /// Average container runtime R_i reported by the DE.
  Seconds mean_runtime = 1.0;
  /// Completed-task samples backing the PMF (drives adaptive delta).
  std::size_t samples = 0;
  /// Utility over absolute completion time (not owned).
  const UtilityFunction* utility = nullptr;

  /// Wraps a freshly built PMF into the shared snapshot.
  void set_demand(QuantizedPmf pmf) {
    demand = std::make_shared<const QuantizedPmf>(std::move(pmf));
  }
};

struct PlanEntry {
  JobId id = kInvalidJob;
  /// Robust demand eta_i chosen by WCDE (container-seconds).
  ContainerSeconds eta = 0.0;
  /// Projected completion time (the web UI's "target completion" column).
  Seconds target_completion = 0.0;
  /// Utility level of the job's peeling layer.
  Utility utility_level = 0.0;
  /// The "red row": no completion time yields positive utility.
  bool impossible = false;
  /// Number of container queues whose head-of-line work belongs to this job
  /// — the allocation RUSH wants the job to hold right now.
  int desired_containers = 0;
};

struct Plan {
  /// Entries sorted by job id (RushPlanner::plan guarantees it), so a
  /// lookup is a binary search — the scheduler's container-assignment path
  /// calls find() once per job per grant, which was an O(J^2) linear scan.
  std::vector<PlanEntry> entries;
  Seconds computed_at = 0.0;
  /// Feasibility probes spent in onion peeling (benchmark aid).
  long peel_probes = 0;

  const PlanEntry* find(JobId id) const {
    const auto it = std::lower_bound(
        entries.begin(), entries.end(), id,
        [](const PlanEntry& e, JobId want) { return e.id < want; });
    return it != entries.end() && it->id == id ? &*it : nullptr;
  }
};

/// Per-stage profile of the planning passes a planner has run — the Fig 5
/// overhead story as live counters.  Durations and counters accumulate
/// across passes; divide by `passes` for per-pass figures (the probe count
/// is hardware-independent, the microseconds are not).
struct PlanStats {
  long passes = 0;
  /// Accumulated wall-clock per stage (microseconds): WCDE, onion peeling,
  /// and the head-of-queue census (plus, in audited passes, the reference
  /// slot mapping and its audits).
  double wcde_us = 0.0;
  double peel_us = 0.0;
  double map_us = 0.0;
  /// Accumulated onion-peel feasibility probes.
  long peel_probes = 0;
  /// Accumulated layers that collapsed directly from their warm hint.
  long warm_layers = 0;
  /// Per-job WCDE lookups over the planner's lifetime: hits are jobs whose
  /// result was reused from the previous pass because their demand snapshot
  /// and KL radius did not change; misses are jobs the pass solved.  hits /
  /// (hits + misses) is the share of solves the memo skipped.
  long wcde_cache_hits = 0;
  long wcde_cache_misses = 0;
  /// Always 0: replan elision and layer replay were retired (DESIGN.md
  /// §5h).  Kept only because rushbench reports them.
  long plans_elided = 0;
  long layers_replayed = 0;
};

class RushPlanner {
 public:
  explicit RushPlanner(RushConfig config);

  /// Runs one full planning pass at absolute time `now` on a cluster of
  /// `capacity` containers.
  ///
  /// Each pass feeds its peel levels into the next as a hint (DESIGN.md
  /// §5d) and its WCDE results into the next as an identity-keyed memo;
  /// both are bit-exact, so the Plan equals that of a fresh planner given
  /// the same inputs.
  ///
  /// Job ids must be unique.  Not safe to call concurrently on one planner:
  /// passes reuse the planner's scratch buffers and cross-pass state.
  Plan plan(const std::vector<PlannerJob>& jobs, ContainerCount capacity,
            Seconds now) const;

  const RushConfig& config() const { return config_; }

  /// Per-stage profile accumulated over every pass this planner ran.
  PlanStats plan_stats() const { return stats_; }

  /// Snapshot seam (DESIGN.md §5j): serializes the cross-pass warm state
  /// that can influence *which work a pass does* — the peel hint.  The
  /// WCDE memo is deliberately dropped on restore: without it the next
  /// pass re-solves every job, which reproduces its results.  Restoring
  /// into a planner with the same config yields bit-identical subsequent
  /// plans because the hinted peel is proven bit-identical to the
  /// hint-less one.
  void save_warm_state(WireWriter& out) const;
  void restore_warm_state(WireReader& in);

 private:
  /// Buffers of one planning pass, hoisted out of plan() so consecutive
  /// passes reuse their allocations instead of paying O(jobs) maps and
  /// vectors per pass.  Mutable because reuse is observable only through
  /// latency.
  struct PassScratch {
    std::vector<WcdeResult> wcde_of;
    std::vector<TasJob> tas_jobs;
    std::vector<MappingJob> mapping_jobs;
    /// R_i per plan entry, aligned with the sorted Plan::entries.
    std::vector<Seconds> entry_runtime;
    QueueCensus census;

    // WCDE stage buffers (solve_wcde_stage).
    /// Prefix-CDF buffer shared by the pass's solves.
    WcdeScratch wcde_scratch;
    /// Per-job adaptive KL radius of the current pass.
    std::vector<KlRadius> job_radius;
  };

  /// One job's WCDE result as the previous pass computed it.  Holding the
  /// demand snapshot pins its address: no later snapshot can be allocated
  /// there while the entry lives, so pointer equality means the same PMF.
  struct EtaMemo {
    JobId id = kInvalidJob;
    std::shared_ptr<const QuantizedPmf> demand;
    KlRadius radius{0.0};
    WcdeResult result;
  };

  /// Step 1 of a pass: reuse the memo of jobs whose snapshot and radius are
  /// unchanged, solve the rest in job order with solve_wcde into
  /// scratch_.wcde_of, then rebuild the memo from this pass's results.
  /// Every slot equals solve_wcde on the job's own inputs.
  void solve_wcde_stage(const std::vector<PlannerJob>& jobs, bool audit) const;

  RushConfig config_;
  mutable PassScratch scratch_;
  /// Previous pass's WCDE results sorted by job id: exactly that pass's
  /// jobs, with the eta each carried into it.  Mutable: memoization is
  /// observable only through latency and stats.
  mutable std::vector<EtaMemo> eta_memo_;
  /// Previous pass's per-layer peel levels (empty until the first pass).
  mutable PeelHint peel_hint_;
  mutable PlanStats stats_;
};

}  // namespace rush
