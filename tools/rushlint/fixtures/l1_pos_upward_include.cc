// L1 positive: src/stats (rank 1) reaching up into src/core (rank 5) —
// the layering DAG admits only strictly-downward includes.
// rushlint-fixture-path: src/stats/histogram_extras.cc
#include "src/core/rush_planner.h"
