// L1 positive: src/cluster (rank 3) reaching up into src/engine (rank 6) —
// the engine sits above the cluster seam it was extracted from, never the
// other way around.
// rushlint-fixture-path: src/cluster/engine_shim.cc
#include "src/engine/engine.h"
