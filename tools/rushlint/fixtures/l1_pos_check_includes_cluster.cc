// L1 positive: src/check (rank 3) including src/cluster (rank 3) — equal
// ranks are not strictly downward, so the auditors stay below anything
// that knows about schedulers or the cluster model.
// rushlint-fixture-path: src/check/cluster_audit.h
#include "src/cluster/scheduler.h"
