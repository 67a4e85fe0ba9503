// rushd session logic, transport-agnostic (DESIGN.md §5j).
//
// RushDaemon owns a RushScheduler + SchedulerEngine pair, a write-ahead
// event log, and the snapshot file.  It maps decoded client messages to
// engine events, appends every accepted event to the WAL *before* applying
// it, and turns the engine's dispatch waves into streamed ServerMessages.
// The socket plumbing lives in rushd_main.cpp; tests (and the throughput
// bench) drive this class directly with in-memory frames, which keeps the
// protocol and recovery paths deterministic and coverable without sockets.
//
// Crash recovery: recover() restores the newest snapshot (if any) and
// replays the WAL tail past its marker — or cold-replays the whole log —
// after which the next wave is bit-identical to the one the crashed
// process would have run.  start_logging() then reopens the WAL in append
// mode, so the recovered session keeps extending the same log.

#pragma once

#include <memory>
#include <string>
#include <vector>

#include "src/core/rush_scheduler.h"
#include "src/daemon/protocol.h"
#include "src/engine/engine.h"
#include "src/engine/event_log.h"

namespace rush {

struct DaemonConfig {
  /// Containers the daemon schedules over.
  ContainerCount capacity = 48;
  /// Scheduler tunables; must match across record / replay / restore runs
  /// for the determinism guarantees to hold.
  RushConfig scheduler;
  /// Write-ahead event log path; empty disables logging (and recovery).
  std::string event_log_path;
  /// Snapshot file path; empty disables kSnapshotRequest handling.
  std::string snapshot_path;
  /// Trust client timestamps instead of the host clock (deterministic
  /// sessions: replayed recordings, the CI smoke script).
  bool client_time = false;
  /// No-op, like EngineConfig::audit_view.
  bool audit_view = false;
};

class RushDaemon : private EngineSink {
 public:
  explicit RushDaemon(DaemonConfig config);

  /// Restores snapshot + WAL tail (or cold-replays the log).  Call once,
  /// before start_logging().  Returns the number of events replayed.
  std::size_t recover();

  /// Opens the WAL for appending and starts recording accepted events.
  void start_logging();

  /// Applies one client message at host time `now` (seconds on the
  /// daemon's monotonic clock; ignored under client_time) and appends the
  /// responses to stream back.  A rejected event (time regression, unknown
  /// container, malformed config) produces kError, never reaches the WAL
  /// and leaves the engine untouched — except that one naming an idle
  /// container at a later timestamp first flushes a pending wave that may
  /// have granted it (SchedulerEngine::process).
  void handle(const ClientMessage& message, Seconds now,
              std::vector<ServerMessage>& responses);

  /// True once a kShutdown message was handled.
  bool shutdown_requested() const { return shutdown_; }

  /// Starts a fresh client session: the next message must be a kHello
  /// whose protocol_version matches ours.  Call per accepted connection
  /// (the transport owns sessions; the engine state is unaffected).
  void begin_session() { hello_done_ = false; }

  /// True once the current session's handshake succeeded.  The transport
  /// drops the client when a message leaves this false.
  bool hello_done() const { return hello_done_; }

  const EngineStats& stats() const { return engine_.stats(); }
  SchedulerEngine& engine() { return engine_; }

 private:
  void on_event(const EngineEvent& event) override;
  void on_wave(const EngineWave& wave) override;

  /// The authoritative timestamp for this message.
  Seconds stamp(const ClientMessage& message, Seconds now) const;
  void drain_waves(std::vector<ServerMessage>& responses);

  DaemonConfig config_;
  RushScheduler scheduler_;
  SchedulerEngine engine_;
  std::unique_ptr<EventLogWriter> log_;
  std::vector<EngineWave> pending_waves_;
  bool shutdown_ = false;
  bool recovered_ = false;
  bool hello_done_ = false;
};

}  // namespace rush
