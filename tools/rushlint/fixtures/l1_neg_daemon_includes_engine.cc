// L1 negative: src/daemon (rank 7) includes strictly-downward — engine
// (6), core (5), state (4), config (1) — all legal.
// rushlint-fixture-path: src/daemon/session_extras.cc
#include "src/config/job_config.h"
#include "src/core/rush_scheduler.h"
#include "src/engine/engine.h"
#include "src/state/snapshot.h"
