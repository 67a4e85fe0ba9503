// L1 positive: src/engine (rank 6) including src/experiments (rank 7) — the
// engine is the simulator the harness drives, so it must not reach back up
// into the evaluation scenarios.
// rushlint-fixture-path: src/engine/scenario_hook.cc
#include "src/experiments/experiment.h"
