// L1 negative: strictly-downward includes and a same-module include are
// legal.
// rushlint-fixture-path: src/core/planner_extras.cc
#include "src/common/types.h"
#include "src/core/rush_planner.h"
#include "src/robust/wcde.h"
