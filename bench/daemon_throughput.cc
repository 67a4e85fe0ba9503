// daemon_throughput — events/sec through the rushd session stack.
//
// Feeds a recorded engine event stream (an EngineSimulation run under the
// RUSH scheduler) back through three configurations and reports sustained
// throughput for each:
//
//   engine      bare SchedulerEngine::process replay — the scheduling core
//   daemon      RushDaemon::handle with full frame encode/decode per
//               message (the socket path minus the socket)
//   daemon+wal  same, with the write-ahead event log appending per event
//
// Emits daemon_throughput.csv and BENCH_daemon.json ($RUSH_BENCH_JSON).
// Informational: no gates — the daemon is I/O-bound by design and its
// numbers vary with the filesystem backing the WAL.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench/provenance.h"
#include "src/cluster/node.h"
#include "src/common/rng.h"
#include "src/core/rush_scheduler.h"
#include "src/daemon/daemon.h"
#include "src/daemon/protocol.h"
#include "src/engine/replay.h"
#include "src/engine/simulation.h"
#include "src/metrics/csv.h"
#include "src/metrics/text_table.h"

namespace rush {
namespace {

constexpr ContainerCount kCapacity = 48;

/// Synthetic session: arrival-sorted jobs (receipt order == id order, the
/// invariant live clients keep) with mixed sizes and deadlines.
std::vector<JobSpec> session_workload(int num_jobs, Rng& rng) {
  std::vector<JobSpec> specs;
  Seconds arrival = 0.0;
  for (int j = 0; j < num_jobs; ++j) {
    arrival += rng.uniform(0.0, 30.0);
    JobSpec spec;
    spec.name = "bench-job" + std::to_string(j);
    spec.arrival = arrival;
    spec.budget = rng.uniform(120.0, 600.0);
    spec.priority = rng.uniform(0.5, 3.0);
    spec.utility_kind = "sigmoid";
    const int maps = 4 + static_cast<int>(rng.uniform_int(0, 28));
    const int reduces = static_cast<int>(rng.uniform_int(0, 3));
    for (int m = 0; m < maps; ++m) {
      spec.tasks.push_back(TaskSpec{rng.uniform(10.0, 60.0), false});
    }
    for (int r = 0; r < reduces; ++r) {
      spec.tasks.push_back(TaskSpec{rng.uniform(10.0, 40.0), true});
    }
    specs.push_back(std::move(spec));
  }
  return specs;
}

struct RecordingSink : EngineSink {
  std::vector<EngineEvent> events;
  void on_event(const EngineEvent& event) override { events.push_back(event); }
};

std::vector<EngineEvent> record_session(int num_jobs) {
  ClusterConfig config;
  config.nodes = homogeneous_nodes(6, 8);  // kCapacity containers
  config.runtime_noise_sigma = 0.25;
  config.task_failure_probability = 0.02;
  config.seed = 20260808;
  RushScheduler scheduler;
  EngineSimulation simulation(config, scheduler);
  RecordingSink sink;
  simulation.set_sink(&sink);
  Rng rng(static_cast<std::uint64_t>(num_jobs) * 7919 + 1);
  for (JobSpec spec : session_workload(num_jobs, rng)) {
    simulation.submit(std::move(spec));
  }
  simulation.run();
  return std::move(sink.events);
}

ClientMessage to_client_message(const EngineEvent& event) {
  ClientMessage message;
  message.time = event.time;
  switch (event.kind) {
    case EngineEvent::Kind::kJobSubmitted:
      message.kind = ClientMessage::Kind::kSubmitJob;
      message.job = event.job;
      break;
    case EngineEvent::Kind::kTaskFinished:
      message.kind = ClientMessage::Kind::kTaskFinished;
      message.container = event.container;
      message.runtime = event.runtime;
      break;
    case EngineEvent::Kind::kContainerFreed:
      message.kind = ClientMessage::Kind::kContainerFreed;
      message.container = event.container;
      message.wasted = event.wasted;
      break;
    case EngineEvent::Kind::kSnapshotRequested:
      message.kind = ClientMessage::Kind::kSnapshotRequest;
      break;
  }
  return message;
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

double engine_events_per_sec(const std::vector<EngineEvent>& events) {
  RushScheduler scheduler;
  const auto start = std::chrono::steady_clock::now();
  replay_events(EngineConfig{.capacity = kCapacity, .audit_view = false}, scheduler, events);
  return static_cast<double>(events.size()) / seconds_since(start);
}

double daemon_events_per_sec(const std::vector<EngineEvent>& events,
                             const std::string& wal_path) {
  // Pre-encode the client frames: the bench times the daemon side of the
  // pipe (decode + session logic + response encode), not the client's.
  std::vector<std::string> frames;
  frames.reserve(events.size());
  for (const EngineEvent& event : events) {
    frames.push_back(encode_frame(to_client_message(event)));
  }

  DaemonConfig config;
  config.capacity = kCapacity;
  config.event_log_path = wal_path;
  config.client_time = true;
  if (!wal_path.empty()) std::remove(wal_path.c_str());
  RushDaemon daemon(config);
  daemon.recover();
  daemon.start_logging();

  FrameBuffer buffer;
  std::string body;
  std::vector<ServerMessage> responses;
  std::size_t response_bytes = 0;

  // Open the session before the timed loop: the handshake is per
  // connection, not per event, so it is not part of the throughput.
  daemon.begin_session();
  ClientMessage hello;
  hello.kind = ClientMessage::Kind::kHello;
  daemon.handle(hello, /*now=*/0.0, responses);
  if (!daemon.hello_done()) std::exit(2);
  responses.clear();

  const auto start = std::chrono::steady_clock::now();
  for (const std::string& frame : frames) {
    buffer.feed(frame);
    while (buffer.next(body)) {
      responses.clear();
      daemon.handle(decode_client_message(body), /*now=*/0.0, responses);
      for (const ServerMessage& response : responses) {
        response_bytes += encode_frame(response).size();
      }
    }
  }
  const double elapsed = seconds_since(start);
  if (response_bytes == 0) std::exit(2);  // the session streamed nothing back
  if (!wal_path.empty()) std::remove(wal_path.c_str());
  return static_cast<double>(events.size()) / elapsed;
}

struct Row {
  int jobs = 0;
  std::size_t events = 0;
  double engine_eps = 0.0;
  double daemon_eps = 0.0;
  double daemon_wal_eps = 0.0;
};

}  // namespace
}  // namespace rush

int main() {
  using rush::Row;
  using rush::TextTable;

  std::vector<Row> rows;
  for (const int jobs : {16, 64}) {
    const std::vector<rush::EngineEvent> events = rush::record_session(jobs);
    Row row;
    row.jobs = jobs;
    row.events = events.size();
    row.engine_eps = rush::engine_events_per_sec(events);
    row.daemon_eps = rush::daemon_events_per_sec(events, "");
    row.daemon_wal_eps = rush::daemon_events_per_sec(
        events, rush::output_path("daemon_throughput.evlog"));
    rows.push_back(row);
  }

  const std::string csv_path = rush::output_path("daemon_throughput.csv");
  rush::CsvWriter csv(csv_path, {"jobs", "events", "engine_events_per_sec",
                                 "daemon_events_per_sec",
                                 "daemon_wal_events_per_sec"});
  TextTable table({"jobs", "events", "engine ev/s", "daemon ev/s", "daemon+wal ev/s"});
  for (const Row& row : rows) {
    csv.add_row({std::to_string(row.jobs), std::to_string(row.events),
                 TextTable::num(row.engine_eps, 0), TextTable::num(row.daemon_eps, 0),
                 TextTable::num(row.daemon_wal_eps, 0)});
    table.add_row({std::to_string(row.jobs), std::to_string(row.events),
                   TextTable::num(row.engine_eps, 0),
                   TextTable::num(row.daemon_eps, 0),
                   TextTable::num(row.daemon_wal_eps, 0)});
  }
  table.print(std::cout);
  std::printf("wrote %s\n", csv_path.c_str());

  const char* json_env = std::getenv("RUSH_BENCH_JSON");
  const std::string json_path =
      json_env != nullptr && *json_env != '\0' ? json_env : "BENCH_daemon.json";
  {
    std::ofstream json(json_path, std::ios::trunc);
    json << "{\n"
         << "  \"bench\": \"daemon_throughput\",\n"
         << rush_bench::provenance_json_fields()
         << "  \"capacity\": " << rush::kCapacity << ",\n"
         << "  \"rows\": [";
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const Row& row = rows[i];
      json << (i == 0 ? "" : ", ") << "{\"jobs\": " << row.jobs
           << ", \"events\": " << row.events
           << ", \"engine_events_per_sec\": " << row.engine_eps
           << ", \"daemon_events_per_sec\": " << row.daemon_eps
           << ", \"daemon_wal_events_per_sec\": " << row.daemon_wal_eps << "}";
    }
    json << "]\n}\n";
  }
  std::printf("wrote %s\n", json_path.c_str());
  return 0;
}
