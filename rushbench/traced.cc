#include "rushbench/traced.h"

#include <filesystem>

#include "src/daemon/daemon.h"
#include "src/engine/replay.h"
#include "src/state/snapshot.h"

namespace rushbench {

using rush::ClientMessage;
using rush::ServerMessage;

namespace {

/// What rushd runs with no flags.
const rush::DaemonConfig kDefaults;

rush::EngineConfig engine_config() {
  return rush::EngineConfig{kDefaults.capacity, kDefaults.audit_view};
}

}  // namespace

std::optional<rush::JobId> TimedScheduler::assign_container(const rush::ClusterView& view) {
  Tracer::Span span(&tracer_, Timing::kCoreSelf, Timing::kCoreAssign);
  return inner_.assign_container(view);
}

std::vector<rush::JobId> TimedScheduler::assign_containers(const rush::ClusterView& view,
                                                           int count) {
  Tracer::Span span(&tracer_, Timing::kCoreSelf, Timing::kCoreAssign);
  const rush::PlanStats before = inner_.plan_stats();
  std::vector<rush::JobId> grants = inner_.assign_containers(view, count);
  const rush::PlanStats after = inner_.plan_stats();
  if (after.passes > before.passes) {
    // One pass per call at most: the deltas are this pass's stage times.
    const double wcde = after.wcde_us - before.wcde_us;
    const double peel = after.peel_us - before.peel_us;
    const double map = after.map_us - before.map_us;
    tracer_.record(Timing::kRobustWcde, wcde);
    tracer_.record(Timing::kTasPeel, peel);
    tracer_.record(Timing::kTasMap, map);
    tracer_.exclude(wcde + peel + map);
  }
  return grants;
}

void TimedScheduler::on_job_arrival(const rush::ClusterView& view, rush::JobId job) {
  Tracer::Span span(&tracer_, Timing::kEstimatorHook);
  inner_.on_job_arrival(view, job);
}

void TimedScheduler::on_task_finished(const rush::ClusterView& view, rush::JobId job,
                                      rush::Seconds runtime, bool is_reduce) {
  Tracer::Span span(&tracer_, Timing::kEstimatorHook);
  ++samples_;
  inner_.on_task_finished(view, job, runtime, is_reduce);
}

void TimedScheduler::on_task_failed(const rush::ClusterView& view, rush::JobId job,
                                    rush::Seconds wasted) {
  Tracer::Span span(&tracer_, Timing::kEstimatorHook);
  inner_.on_task_failed(view, job, wasted);
}

void TimedScheduler::on_job_finished(const rush::ClusterView& view, rush::JobId job) {
  Tracer::Span span(&tracer_, Timing::kEstimatorHook);
  inner_.on_job_finished(view, job);
}

TracedDaemon::TracedDaemon(std::string wal_path, std::string snapshot_path, Tracer& tracer)
    : snapshot_path_(std::move(snapshot_path)),
      tracer_(tracer),
      rush_(kDefaults.scheduler),
      timed_(rush_, tracer),
      engine_(engine_config(), timed_),
      log_(std::make_unique<rush::EventLogWriter>(wal_path, /*truncate=*/true)) {
  engine_.set_sink(this);
}

void TracedDaemon::serve(std::string_view frame, double now, std::string& replies) {
  buffer_.feed(frame);
  while (true) {
    ClientMessage message;
    {
      Tracer::Span span(&tracer_, Timing::kWireDecode);
      if (!buffer_.next(body_)) break;
      message = rush::decode_client_message(body_);
    }
    responses_.clear();
    handle(message, now, responses_);
    Tracer::Span span(&tracer_, Timing::kWireEncode);
    for (const ServerMessage& response : responses_) replies += rush::encode_frame(response);
  }
}

namespace {

ServerMessage error_message(rush::Seconds now, std::string text) {
  ServerMessage message;
  message.kind = ServerMessage::Kind::kError;
  message.time = now;
  message.text = std::move(text);
  return message;
}

}  // namespace

// RushDaemon::handle with client_time = false, restated over the traced
// pieces; keep the two in step.
void TracedDaemon::handle(const ClientMessage& message, double now,
                          std::vector<ServerMessage>& responses) {
  Tracer::Span span(&tracer_, Timing::kDaemonSelf);
  if (message.kind == ClientMessage::Kind::kHello) {
    if (message.protocol_version != rush::kProtocolVersion) {
      responses.push_back(error_message(engine_.now(), "rushd: protocol version mismatch"));
      return;
    }
    hello_done_ = true;
    ServerMessage ok;
    ok.kind = ServerMessage::Kind::kHelloOk;
    ok.time = engine_.now();
    responses.push_back(std::move(ok));
    return;
  }
  if (!hello_done_) {
    responses.push_back(error_message(engine_.now(), "rushd: handshake required"));
    return;
  }
  const rush::Seconds time = std::max(now, engine_.now());
  try {
    switch (message.kind) {
      case ClientMessage::Kind::kSubmitJob: {
        const auto id = static_cast<rush::JobId>(engine_.jobs_submitted());
        {
          Tracer::Span engine_span(&tracer_, Timing::kEngineSelf);
          engine_.process(rush::make_job_submitted(time, id, message.job));
        }
        ServerMessage accepted;
        accepted.kind = ServerMessage::Kind::kJobAccepted;
        accepted.job_id = id;
        accepted.time = time;
        responses.push_back(std::move(accepted));
        break;
      }
      case ClientMessage::Kind::kTaskFinished: {
        Tracer::Span engine_span(&tracer_, Timing::kEngineSelf);
        engine_.process(rush::make_task_finished(time, message.container, message.runtime));
        engine_.flush();
        break;
      }
      case ClientMessage::Kind::kContainerFreed: {
        Tracer::Span engine_span(&tracer_, Timing::kEngineSelf);
        engine_.process(rush::make_container_freed(time, message.container, message.wasted));
        engine_.flush();
        break;
      }
      case ClientMessage::Kind::kSnapshotRequest: {
        {
          Tracer::Span engine_span(&tracer_, Timing::kEngineSelf);
          engine_.process(rush::make_snapshot_requested(time));
        }
        Tracer::Span snapshot_span(&tracer_, Timing::kStateSnapshot);
        rush::Snapshot snapshot;
        engine_.save_state(snapshot);
        ServerMessage saved;
        saved.kind = ServerMessage::Kind::kSnapshotSaved;
        saved.time = time;
        saved.bytes = snapshot.write_file(snapshot_path_);
        ++snapshots_;
        snapshot_bytes_ += saved.bytes;
        responses.push_back(std::move(saved));
        break;
      }
      case ClientMessage::Kind::kShutdown: {
        {
          Tracer::Span engine_span(&tracer_, Timing::kEngineSelf);
          engine_.flush();
        }
        ServerMessage goodbye;
        goodbye.kind = ServerMessage::Kind::kGoodbye;
        goodbye.time = engine_.now();
        drain_waves(responses);
        responses.push_back(std::move(goodbye));
        return;
      }
      case ClientMessage::Kind::kHello:
        break;
    }
  } catch (const rush::InvalidInput& error) {
    responses.push_back(error_message(engine_.now(), error.what()));
  }
  drain_waves(responses);
}

void TracedDaemon::drain_waves(std::vector<ServerMessage>& responses) {
  for (rush::EngineWave& wave : pending_waves_) {
    ServerMessage record;
    record.kind = ServerMessage::Kind::kWave;
    record.time = wave.now;
    record.wave = std::move(wave);
    responses.push_back(std::move(record));
  }
  pending_waves_.clear();
}

void TracedDaemon::on_event(const rush::EngineEvent& event) {
  Tracer::Span span(&tracer_, Timing::kWalAppend);
  log_->append(event);
}

void TracedDaemon::on_wave(const rush::EngineWave& wave) {
  // The engine fills predictions only for a scheduler that *is* a
  // RushScheduler, which the decorator is not; attach them as
  // SchedulerEngine::collect_predictions would.
  rush::EngineWave& record = pending_waves_.emplace_back(wave);
  const rush::Plan& plan = rush_.current_plan();
  record.predictions.reserve(plan.entries.size());
  for (const rush::PlanEntry& entry : plan.entries) {
    rush::EnginePrediction prediction;
    prediction.id = entry.id;
    prediction.eta = entry.eta;
    prediction.target_completion = entry.target_completion;
    prediction.utility_level = entry.utility_level;
    prediction.impossible = entry.impossible;
    prediction.desired_containers = entry.desired_containers;
    record.predictions.push_back(prediction);
  }
}

TracedRecovery traced_recover(const std::string& wal_path, const std::string& snapshot_path,
                              Tracer& tracer) {
  Tracer::Span span(&tracer, Timing::kStateRestore);
  rush::RushScheduler scheduler(kDefaults.scheduler);
  rush::SchedulerEngine engine(engine_config(), scheduler);
  const std::vector<rush::EngineEvent> events =
      rush::read_event_log(wal_path, /*allow_torn_tail=*/true);
  std::size_t begin = 0;
  if (std::filesystem::exists(snapshot_path)) {
    begin = rush::replay_begin_after_last_snapshot(events);
    rush::restore_and_replay(engine, rush::Snapshot::read_file(snapshot_path), events, begin);
  } else {
    for (const rush::EngineEvent& event : events) engine.process(event);
    engine.flush();
  }
  return TracedRecovery{engine.job_records(), static_cast<long>(events.size() - begin)};
}

}  // namespace rushbench
