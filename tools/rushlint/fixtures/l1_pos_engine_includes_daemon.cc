// L1 positive: src/engine (rank 6) including src/daemon (rank 7) — the
// transport-agnostic engine must not know about the socket layer above it.
// rushlint-fixture-path: src/engine/daemon_hook.cc
#include "src/daemon/protocol.h"
