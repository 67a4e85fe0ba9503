// Eta-delta tracking for replan elision (DESIGN.md §5h).
//
// Replan elision needs one question answered cheaply: "did any robust
// demand eta_i move, and by how much, since the plan we are about to
// reuse was committed?"  The planner's WCDE memo already pins
// *recomputation* cost to the jobs whose PMF changed; this header pins
// *change detection* to the same jobs.  The drift metric is relative with a one-container-second
// floor, so a job draining its last granules (tiny absolute eta) cannot
// blow the ratio up, and tolerance 0 degenerates to bit-equality — the
// contract the tolerance-0 elision proof rests on.

#pragma once

#include "src/common/types.h"

namespace rush {

/// Relative drift between the eta a committed plan consumed and a freshly
/// solved one: |fresh - planned| / max(|planned|, 1 container-second).
double eta_drift(ContainerSeconds planned, ContainerSeconds fresh);

/// True when `fresh` is within `tolerance` relative drift of `planned`.
/// Tolerance 0 (or negative) demands bit-equality — no epsilon: the
/// tolerance-0 elision gate promises byte-identical plans, and that proof
/// needs identical planner inputs, not merely close ones.
bool eta_within_tolerance(ContainerSeconds planned, ContainerSeconds fresh,
                          double tolerance);

}  // namespace rush
