// Tunables of the RUSH scheduler (paper Table I and §IV).

#pragma once

#include <cstddef>
#include <string>

#include "src/common/units.h"
#include "src/estimator/distribution_estimator.h"

namespace rush {

struct RushConfig {
  /// Completion-probability requirement theta in (0,1): each job must
  /// receive at least its v_i demand with this probability, under the worst
  /// case distribution (constraint (3)).  Kept a bare double — this struct
  /// is the public config surface, assigned from parsed flags and literals
  /// everywhere; the typed view is theta_level() below.
  double theta = 0.9;  // rushlint: unit-ok(public config surface; typed accessor theta_level())

  /// Entropy threshold delta: KL ball radius around the reference
  /// distribution.  The paper's Fig 3 recommends >= 0.7 until estimates
  /// mature.  delta = 0 disables robustness (trust phi outright).
  /// Bare double for the same reason as theta; delta_for() is typed.
  double delta = 0.7;  // rushlint: unit-ok(public config surface; typed accessor delta_for())

  /// When true, delta shrinks as a job accumulates runtime samples
  /// (delta * sqrt(full_trust_samples / samples), floored at delta_min) —
  /// the "more samples allow a smaller entropy threshold" observation in
  /// §V-A, made concrete.
  bool adaptive_delta = false;
  std::size_t full_trust_samples = 35;
  double delta_min = 0.05;  // rushlint: unit-ok(public config surface; consumed via delta_for())

  /// Demand PMF resolution (number of quantisation bins).
  std::size_t bins = 256;

  /// Onion peeling bisection tolerance Delta on the utility level.
  double peel_tolerance = 1e-3;

  /// Distribution estimator class per job: "mean", "gaussian", "bootstrap",
  /// "ewma".
  std::string estimator_kind = "gaussian";

  /// Extension (DESIGN.md §5): estimate map and reduce demand with separate
  /// per-phase moments instead of one pooled estimator — avoids
  /// underestimating reduce-heavy jobs as they cross the barrier.
  bool phase_aware_estimation = false;

  /// Fallback runtime assumptions for jobs with too few samples.
  EstimatorPrior prior = {};

  /// Runs the invariant auditor (src/check) on every planning pass — WCDE
  /// robustness, onion-peeling EDF feasibility and slot-mapping queue
  /// occupation — and throws InternalError on any violation.  Always on in
  /// RUSH_DCHECK builds; this flag additionally enables it at runtime in
  /// release builds (integration tests, canary deployments).
  bool audit_invariants = false;

  /// The coverage requirement as a dimension-checked probability — what the
  /// planner hands to WCDE.
  Probability theta_level() const { return Probability(theta); }

  /// Effective entropy threshold for a job with `samples` completed tasks.
  KlRadius delta_for(std::size_t samples) const;

  /// Validates ranges (every real-valued field must be finite); throws
  /// InvalidInput.
  void validate() const;
};

}  // namespace rush
