// L1 positive: src/state (rank 1) reaching up into src/cluster (rank 3) —
// the snapshot container holds opaque byte sections, so it must not know
// the scheduler types whose state it carries.
// rushlint-fixture-path: src/state/snapshot_extras.h
#include "src/cluster/scheduler.h"
