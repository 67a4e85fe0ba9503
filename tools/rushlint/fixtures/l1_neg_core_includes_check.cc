// L1 negative: src/core (rank 5) includes the invariant auditor in src/check
// (rank 3) and the stage libraries below it — all strictly downward, legal.
// rushlint-fixture-path: src/core/planner_audit.cc
#include "src/check/invariant_auditor.h"
#include "src/tas/onion_peeling.h"
