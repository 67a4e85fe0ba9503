// L1 negative: src/experiments (rank 7) runs its experiments on the engine's
// simulator (rank 6) — a strictly-downward include, legal.
// rushlint-fixture-path: src/experiments/harness_extras.cc
#include "src/engine/simulation.h"
#include "src/workload/generator.h"
