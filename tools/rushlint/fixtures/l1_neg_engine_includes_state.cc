// L1 negative: src/engine (rank 6) includes strictly-downward — cluster
// (3), state and sim (1) — all legal.
// rushlint-fixture-path: src/engine/state_extras.cc
#include "src/cluster/scheduler.h"
#include "src/sim/simulator.h"
#include "src/state/snapshot.h"
