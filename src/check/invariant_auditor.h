// Invariant auditor — machine checks for the paper's correctness claims.
//
// Each audit_* function walks one artefact of the RUSH pipeline and verifies
// the invariants the paper (and DESIGN.md) promise about it:
//
//   audit_pmf        PMF hygiene: non-negative finite mass, unit total.
//   audit_wcde       the WCDE answer is robust (no distribution within the
//                    delta KL ball beats it), minimal (one bin less would not
//                    be robust), and witnessed by an in-ball REM distribution.
//   audit_wcde_reuse a memoised WCDE result equals a fresh solve, bit for bit.
//   audit_tas        onion-peeling output: one target per job, monotone
//                    layers/utility levels, and the preemptive-EDF capacity
//                    condition of Theorem 2 over the peeled deadlines.
//   audit_mapping    slot-mapper output: segments on one queue are gap-free
//                    and never overlap, container-seconds are conserved
//                    between the demand fed in and the tasks packed out, and
//                    Theorem 3 holds (completion <= deadline + task_runtime).
//   audit_queue_heads the planner's head-of-queue census gives every job the
//                    queue heads of Algorithm 4's full packing, which it
//                    runs (map_time_slots) and audits.
//
// All functions return an AuditReport; none throw on violation (call
// AuditReport::throw_if_failed() for that).  They are pure observers — safe
// to call from tests, offline tools and RUSH_DCHECK-gated hot paths alike.

#pragma once

#include <vector>

#include "src/check/audit_report.h"
#include "src/check/slot_mapping_reference.h"
#include "src/common/types.h"
#include "src/common/units.h"
#include "src/robust/wcde.h"
#include "src/stats/pmf.h"
#include "src/tas/onion_peeling.h"

namespace rush {

/// Tolerances used by the audits.  The defaults match the epsilons of the
/// algorithms being audited (slot mapper granule rounding, peeler EDF slack).
struct AuditOptions {
  /// Absolute tolerance on probability-mass totals.
  double mass_tolerance = 1e-6;
  /// Absolute tolerance on times (seconds) and container-seconds.
  double time_tolerance = 1e-6;
  /// Tolerance on KL-divergence comparisons.
  double kl_tolerance = 1e-9;
};

/// Checks that `pmf` is a valid probability distribution: positive bin
/// width, all masses finite and non-negative, total mass 1 within tolerance.
AuditReport audit_pmf(const QuantizedPmf& pmf, const AuditOptions& options = {});

/// Checks a WCDE answer against its inputs: eta covers the reference
/// quantile, no distribution within the delta-ball places less than theta
/// mass on [0, eta] (robustness), the next smaller bin would not be robust
/// (minimality), and the REM worst-case witness for the last adversarial bin
/// lies inside the KL ball.
AuditReport audit_wcde(const QuantizedPmf& phi, Probability theta, KlRadius delta,
                       const WcdeResult& result, const AuditOptions& options = {});

/// Checks a reused WCDE result against a fresh solve of the same inputs:
/// re-solves with solve_wcde and compares eta, eta_bin and reference_eta
/// with ==, no tolerance — the planner's memo (DESIGN.md §5d) must be
/// indistinguishable from solving again.
AuditReport audit_wcde_reuse(const QuantizedPmf& phi, Probability theta,
                             KlRadius delta, const WcdeResult& reused);

/// Checks an onion-peeling result against the jobs it was computed from:
/// exactly one target per job, monotone layer numbers and utility levels in
/// peel order, deadlines at/after `now`, and Theorem 2's EDF feasibility of
/// the chosen mapping deadlines on `capacity` containers.
AuditReport audit_tas(const TasResult& result, const std::vector<TasJob>& jobs,
                      ContainerCount capacity, Seconds now,
                      const AuditOptions& options = {});

/// Checks a slot-mapping result against the jobs it was computed from:
/// per-queue occupation is gap-free and non-overlapping starting at `now`,
/// queue_occupation matches the packed segments, per-job completion times
/// match segment ends, every job's demand is served in whole task granules
/// (container-second conservation), and the Theorem 3 bound
/// `completion <= deadline + task_runtime` holds whenever the mapper reports
/// within_bound.
AuditReport audit_mapping(const MappingResult& result,
                          const std::vector<MappingJob>& jobs,
                          ContainerCount capacity, Seconds now,
                          const AuditOptions& options = {});

/// Checks a head-of-queue census (count_queue_heads) against Algorithm 4's
/// full packing of the same jobs: runs the reference map_time_slots on
/// `jobs`, audits that packing (audit_mapping, merged into the report), and
/// requires `heads[i]` to be exactly the number of queues jobs[i] heads in
/// it, where the head of a queue is the job of its earliest segment.
AuditReport audit_queue_heads(const std::vector<MappingJob>& jobs,
                              ContainerCount capacity, Seconds now,
                              const std::vector<int>& heads);

}  // namespace rush
