// L1 positive: src/check (rank 3) reaching up into src/core (rank 5) — the
// auditors check the planner's stages from below, so they must not depend
// on the planner or scheduler that calls them.
// rushlint-fixture-path: src/check/plan_audit.h
#include "src/core/rush_planner.h"
