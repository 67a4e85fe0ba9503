// Reference onion peel for tests: the all-probe k-section.
//
// The production peel (src/tas/onion_peeling.cc) answers most levels of each
// layer's k-section grid from the bracket its earlier probes proved, and
// starts hinted layers with a slack-guided root find.  Whenever feasibility
// is monotone in the level, that must land every layer on the same grid
// level, deadline and bottleneck as probing every grid level — which is what
// this oracle does, with no hint, replay or slack code of its own.  It
// shares no code with the production peel: it has its own EDF walk and its
// own peeled prefix sums, and reaches the utility curves only through
// UtilityFunction::value and UtilityFunction::inverse.

#pragma once

#include <vector>

#include "src/common/types.h"
#include "src/tas/onion_peeling.h"

namespace rush {

/// Peels `jobs` by Algorithm 3 with k = 4 interior probes per round, every
/// round probing all four, on the automatic horizon.  Fills
/// TasResult::targets, horizon and probes (the level-0 probe, one cap probe
/// per layer and four per round; the bottleneck probe is not counted).
TasResult ksection_peel(const std::vector<TasJob>& jobs, ContainerCount capacity,
                        Seconds now, double tolerance);

}  // namespace rush
