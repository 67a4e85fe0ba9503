#include "src/daemon/daemon.h"

#include <algorithm>
#include <fstream>

#include "src/engine/replay.h"
#include "src/state/snapshot.h"

namespace rush {

namespace {

bool file_exists(const std::string& path) {
  return !path.empty() && std::ifstream(path).good();
}

ServerMessage error_message(Seconds now, std::string text) {
  ServerMessage message;
  message.kind = ServerMessage::Kind::kError;
  message.time = now;
  message.text = std::move(text);
  return message;
}

}  // namespace

RushDaemon::RushDaemon(DaemonConfig config)
    : config_(std::move(config)),
      scheduler_(config_.scheduler),
      engine_(EngineConfig{.capacity = config_.capacity}, scheduler_) {}

std::size_t RushDaemon::recover() {
  require(!recovered_, "RushDaemon::recover: already recovered");
  recovered_ = true;
  std::vector<EngineEvent> events;
  if (file_exists(config_.event_log_path)) {
    events = read_event_log(config_.event_log_path, /*allow_torn_tail=*/true);
  }
  if (file_exists(config_.snapshot_path)) {
    const Snapshot snapshot = Snapshot::read_file(config_.snapshot_path);
    const std::size_t begin = replay_begin_after_last_snapshot(events);
    restore_and_replay(engine_, snapshot, events, begin);
    return events.size() - begin;
  }
  for (const EngineEvent& event : events) engine_.process(event);
  engine_.flush();
  return events.size();
}

void RushDaemon::start_logging() {
  engine_.set_sink(this);
  if (config_.event_log_path.empty()) return;
  // Append: recover() already replayed whatever the file holds, so the
  // session keeps extending the same log (fresh file when none existed).
  log_ = std::make_unique<EventLogWriter>(config_.event_log_path,
                                          /*truncate=*/false);
}

void RushDaemon::on_event(const EngineEvent& event) {
  if (log_ != nullptr) log_->append(event);
}

void RushDaemon::on_wave(const EngineWave& wave) { pending_waves_.push_back(wave); }

Seconds RushDaemon::stamp(const ClientMessage& message, Seconds now) const {
  if (config_.client_time) return message.time;
  // The host clock is monotonic, but never move the engine backwards even
  // if the caller's clock misbehaves.
  return std::max(now, engine_.now());
}

void RushDaemon::drain_waves(std::vector<ServerMessage>& responses) {
  for (EngineWave& wave : pending_waves_) {
    ServerMessage message;
    message.kind = ServerMessage::Kind::kWave;
    message.time = wave.now;
    message.wave = std::move(wave);
    responses.push_back(std::move(message));
  }
  pending_waves_.clear();
}

void RushDaemon::handle(const ClientMessage& message, Seconds now,
                        std::vector<ServerMessage>& responses) {
  if (shutdown_) {
    responses.push_back(error_message(engine_.now(), "rushd: shutting down"));
    return;
  }
  // Handshake gate: every session opens with kHello before any event.  The
  // hello carries no engine time and must not go through stamp() — a fresh
  // client's time 0 is not a regression.
  if (message.kind == ClientMessage::Kind::kHello) {
    if (message.protocol_version != kProtocolVersion) {
      responses.push_back(error_message(
          engine_.now(),
          "rushd: protocol version mismatch (client announced " +
              std::to_string(static_cast<int>(message.protocol_version)) +
              ", server speaks " +
              std::to_string(static_cast<int>(kProtocolVersion)) + ")"));
      return;
    }
    hello_done_ = true;
    ServerMessage ok;
    ok.kind = ServerMessage::Kind::kHelloOk;
    ok.time = engine_.now();
    ok.protocol_version = kProtocolVersion;
    responses.push_back(std::move(ok));
    return;
  }
  if (!hello_done_) {
    responses.push_back(error_message(
        engine_.now(), "rushd: handshake required before " +
                           std::string(client_kind_name(message.kind)) +
                           " (open the session with hello)"));
    return;
  }
  const Seconds time = stamp(message, now);
  if (time < engine_.now()) {
    responses.push_back(error_message(
        engine_.now(), "rushd: event time regresses (client clock behind)"));
    return;
  }

  try {
    switch (message.kind) {
      case ClientMessage::Kind::kSubmitJob: {
        const JobId id = static_cast<JobId>(engine_.jobs_submitted());
        engine_.process(make_job_submitted(time, id, message.job));
        ServerMessage accepted;
        accepted.kind = ServerMessage::Kind::kJobAccepted;
        accepted.job_id = id;
        accepted.time = time;
        responses.push_back(std::move(accepted));
        break;
      }
      case ClientMessage::Kind::kTaskFinished:
        engine_.process(make_task_finished(time, message.container,
                                                        message.runtime));
        // Wall-clock sessions have no later same-timestamp event to close
        // the wave; client-time sessions coalesce by timestamp instead.
        if (!config_.client_time) engine_.flush();
        break;
      case ClientMessage::Kind::kContainerFreed:
        engine_.process(make_container_freed(time, message.container,
                                                          message.wasted));
        if (!config_.client_time) engine_.flush();
        break;
      case ClientMessage::Kind::kSnapshotRequest: {
        require(!config_.snapshot_path.empty(),
                "rushd: snapshots disabled (no --snapshot path)");
        engine_.process(make_snapshot_requested(time));
        Snapshot snapshot;
        engine_.save_state(snapshot);
        ServerMessage saved;
        saved.kind = ServerMessage::Kind::kSnapshotSaved;
        saved.time = time;
        saved.bytes = snapshot.write_file(config_.snapshot_path);
        responses.push_back(std::move(saved));
        break;
      }
      case ClientMessage::Kind::kShutdown: {
        engine_.flush();
        shutdown_ = true;
        ServerMessage goodbye;
        goodbye.kind = ServerMessage::Kind::kGoodbye;
        goodbye.time = engine_.now();
        drain_waves(responses);
        responses.push_back(std::move(goodbye));
        return;
      }
      case ClientMessage::Kind::kHello:
        break;  // handled by the handshake gate above
    }
  } catch (const InvalidInput& error) {
    responses.push_back(error_message(engine_.now(), error.what()));
  }
  drain_waves(responses);
}

}  // namespace rush
