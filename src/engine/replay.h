// Deterministic replay of recorded event streams (DESIGN.md §5j).
//
// Because events are the engine's only inputs, feeding a recorded stream
// through a fresh engine (same scheduler configuration) re-derives every
// decision: traces, metrics, predictions and job records come out
// byte-identical to the original session — whether that session was an
// in-process simulation or a live rushd deployment.  The same machinery
// resumes a crashed daemon: restore the latest snapshot, then replay the
// write-ahead log's tail past the snapshot marker.

#pragma once

#include <cstddef>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/engine/engine.h"
#include "src/engine/event.h"
#include "src/state/snapshot.h"

namespace rush {

/// Replays a recorded stream through a fresh engine: processes every event
/// in order, flushes the final wave, and returns a RunResult equivalent to
/// the recording session's.  A speculating session replays with the same
/// speculation settings in `config`.  `observer` and `sink` may be null.
RunResult replay_events(const EngineConfig& config, Scheduler& scheduler,
                        const std::vector<EngineEvent>& events,
                        ClusterObserver* observer = nullptr,
                        EngineSink* sink = nullptr);

/// Restores `engine` from `snapshot`, then replays `events` starting at
/// `begin` (normally just past the snapshot's marker).  After the final
/// flush the engine's subsequent behavior is bit-identical to the session
/// that wrote the snapshot.
void restore_and_replay(SchedulerEngine& engine, const Snapshot& snapshot,
                        const std::vector<EngineEvent>& events, std::size_t begin);

/// Index just past the LAST kSnapshotRequested marker in `events` — where
/// log-tail replay resumes after restoring the matching snapshot.  Returns
/// 0 when the stream has no marker (cold replay from the beginning).
std::size_t replay_begin_after_last_snapshot(const std::vector<EngineEvent>& events);

/// Builds the RunResult for an engine's current state (shared by
/// replay_events and EngineSimulation::run).
RunResult engine_run_result(const SchedulerEngine& engine);

}  // namespace rush
