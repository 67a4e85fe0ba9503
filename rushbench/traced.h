// The traced form of rushd's pipeline, assembled from public pieces.
//
// RushDaemon keeps its scheduler, engine and log private, so the traced run
// rebuilds the same pipeline around them: the frame codec, a
// SchedulerEngine whose EngineSink appends to an EventLogWriter, a timing
// decorator around RushScheduler, and Snapshot save/write.  Each call into a
// layer is a span (trace.h).  The pipeline answers every message as
// RushDaemon::handle does under the default DaemonConfig, with the same
// grants and predictions; the run checks this through the grant digest.

#pragma once

#include <memory>
#include <string>
#include <vector>

#include "rushbench/client.h"
#include "rushbench/trace.h"
#include "src/core/rush_scheduler.h"
#include "src/daemon/protocol.h"
#include "src/engine/engine.h"
#include "src/engine/event_log.h"

namespace rushbench {

/// Forwards every Scheduler call to a RushScheduler inside a span, and
/// records the planner's per-pass stage times from plan_stats() deltas.
class TimedScheduler final : public rush::Scheduler {
 public:
  TimedScheduler(rush::RushScheduler& inner, Tracer& tracer) : inner_(inner), tracer_(tracer) {}

  std::string name() const override { return inner_.name(); }
  std::optional<rush::JobId> assign_container(const rush::ClusterView& view) override;
  std::vector<rush::JobId> assign_containers(const rush::ClusterView& view, int count) override;
  void on_job_arrival(const rush::ClusterView& view, rush::JobId job) override;
  void on_task_finished(const rush::ClusterView& view, rush::JobId job, rush::Seconds runtime,
                        bool is_reduce) override;
  void on_task_failed(const rush::ClusterView& view, rush::JobId job,
                      rush::Seconds wasted) override;
  void on_job_finished(const rush::ClusterView& view, rush::JobId job) override;
  void save_state(std::string& blob) const override { inner_.save_state(blob); }
  void restore_state(const std::string& blob) override { inner_.restore_state(blob); }

  /// Task-finished hooks seen: the estimator's runtime samples.
  long samples() const { return samples_; }

 private:
  rush::RushScheduler& inner_;
  Tracer& tracer_;
  long samples_ = 0;
};

/// rushd's session logic over the traced pipeline (live mode, default
/// scheduler config, WAL and snapshots on).
class TracedDaemon final : public FrameServer, private rush::EngineSink {
 public:
  TracedDaemon(std::string wal_path, std::string snapshot_path, Tracer& tracer);

  void serve(std::string_view frame, double now, std::string& replies) override;

  const rush::SchedulerEngine& engine() const { return engine_; }
  rush::PlanStats plan_stats() const { return rush_.plan_stats(); }
  long samples() const { return timed_.samples(); }
  long wal_records() const { return log_->records_written(); }
  long snapshots() const { return snapshots_; }
  std::uint64_t snapshot_bytes() const { return snapshot_bytes_; }

 private:
  void handle(const rush::ClientMessage& message, double now,
              std::vector<rush::ServerMessage>& responses);
  void drain_waves(std::vector<rush::ServerMessage>& responses);
  void on_event(const rush::EngineEvent& event) override;
  void on_wave(const rush::EngineWave& wave) override;

  std::string snapshot_path_;
  Tracer& tracer_;
  rush::RushScheduler rush_;
  TimedScheduler timed_;
  rush::SchedulerEngine engine_;
  std::unique_ptr<rush::EventLogWriter> log_;
  std::vector<rush::EngineWave> pending_waves_;
  rush::FrameBuffer buffer_;
  std::string body_;
  std::vector<rush::ServerMessage> responses_;
  bool hello_done_ = false;
  long snapshots_ = 0;
  std::uint64_t snapshot_bytes_ = 0;
};

struct TracedRecovery {
  std::vector<rush::JobRecord> records;
  long replay_events = 0;
};

/// RushDaemon::recover's steps on a fresh engine (newest snapshot plus WAL
/// tail, or the whole WAL when no snapshot was taken), inside one
/// state.restore span.
TracedRecovery traced_recover(const std::string& wal_path, const std::string& snapshot_path,
                              Tracer& tracer);

}  // namespace rushbench
