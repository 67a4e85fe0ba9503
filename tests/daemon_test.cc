// rushd session tests, driving RushDaemon directly with decoded messages
// (no sockets — the transport loop in rushd_main.cpp only moves bytes).
//
// The acceptance-criterion test: a recorded daemon session, replayed through
// a fresh engine from the daemon's own write-ahead log, produces traces and
// metrics byte-identical to an in-process EngineSimulation run of the same
// events.  A second test crashes the daemon mid-session (after a snapshot),
// recovers a new instance from snapshot + WAL tail, finishes the session,
// and shows the combined log still replays to the identical trace.

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/cluster/node.h"
#include "src/core/rush_scheduler.h"
#include "src/daemon/daemon.h"
#include "src/daemon/protocol.h"
#include "src/engine/event_log.h"
#include "src/engine/replay.h"
#include "src/engine/simulation.h"
#include "src/metrics/csv.h"
#include "src/metrics/trace.h"

namespace rush {
namespace {

// ---------- reference session ----------

/// A deterministic workload whose arrivals are sorted, so the daemon's
/// receipt-order job ids coincide with the simulation's submission order.
std::vector<JobSpec> session_workload() {
  std::vector<JobSpec> specs;
  const struct {
    double arrival, budget, priority;
    int maps, reduces;
    double task_seconds;
  } rows[] = {
      {0.0, 180.0, 2.0, 6, 1, 20.0},
      {15.0, 240.0, 1.0, 9, 2, 15.0},
      {15.0, 120.0, 3.0, 4, 0, 30.0},
      {70.0, 300.0, 1.5, 8, 1, 25.0},
  };
  int index = 0;
  for (const auto& row : rows) {
    JobSpec spec;
    spec.name = "session-job" + std::to_string(index++);
    spec.arrival = row.arrival;
    spec.budget = row.budget;
    spec.priority = row.priority;
    spec.utility_kind = "sigmoid";
    for (int m = 0; m < row.maps; ++m) {
      spec.tasks.push_back(TaskSpec{row.task_seconds, false});
    }
    for (int r = 0; r < row.reduces; ++r) {
      spec.tasks.push_back(TaskSpec{row.task_seconds * 0.6, true});
    }
    specs.push_back(std::move(spec));
  }
  return specs;
}

struct RecordingSink : EngineSink {
  std::vector<EngineEvent> events;
  void on_event(const EngineEvent& event) override { events.push_back(event); }
};

struct Reference {
  RunResult result;
  TraceRecorder trace;
  RecordingSink recording;
};

/// The in-process simulator run the daemon session must reproduce.  Physics
/// noise/failures stay on (seeded), because the daemon only ever sees the
/// *events* — the recording carries the realized runtimes.
void run_reference(Reference& out) {
  ClusterConfig config;
  config.nodes = homogeneous_nodes(2, 3);
  config.runtime_noise_sigma = 0.25;
  config.task_failure_probability = 0.05;
  config.seed = 91;
  config.audit_incremental_view = true;
  RushScheduler scheduler;
  EngineSimulation simulation(config, scheduler);
  simulation.set_observer(&out.trace);
  simulation.set_sink(&out.recording);
  for (JobSpec spec : session_workload()) simulation.submit(std::move(spec));
  out.result = simulation.run();
  ASSERT_TRUE(out.result.completed);
}

/// Opens a daemon session: kHello must precede every other message, and a
/// matching version earns exactly one kHelloOk.
void open_session(RushDaemon& daemon) {
  daemon.begin_session();
  ClientMessage hello;
  hello.kind = ClientMessage::Kind::kHello;
  hello.protocol_version = kProtocolVersion;
  std::vector<ServerMessage> responses;
  daemon.handle(hello, /*now=*/0.0, responses);
  ASSERT_EQ(responses.size(), 1u);
  ASSERT_EQ(responses[0].kind, ServerMessage::Kind::kHelloOk);
  EXPECT_EQ(responses[0].protocol_version, kProtocolVersion);
  ASSERT_TRUE(daemon.hello_done());
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

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void write_metrics_csv(const std::string& path, const RunResult& result) {
  CsvWriter csv(path, {"job", "name", "completion", "utility", "latency"});
  for (const JobRecord& job : result.jobs) {
    csv.add_row({std::to_string(job.id), job.name, std::to_string(job.completion),
                 std::to_string(job.utility), std::to_string(job.latency())});
  }
}

void expect_traces_identical(const std::vector<TraceEvent>& a,
                             const std::vector<TraceEvent>& b,
                             const std::string& context) {
  ASSERT_EQ(a.size(), b.size()) << context;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].time, b[i].time) << context << " event " << i;
    EXPECT_EQ(a[i].kind, b[i].kind) << context << " event " << i;
    EXPECT_EQ(a[i].job, b[i].job) << context << " event " << i;
    EXPECT_EQ(a[i].container, b[i].container) << context << " event " << i;
    EXPECT_EQ(a[i].value, b[i].value) << context << " event " << i;
    EXPECT_EQ(a[i].label, b[i].label) << context << " event " << i;
  }
}

/// Replays a WAL file through a fresh scheduler+engine and compares the
/// rederived trace and metrics against the reference byte-for-byte.
void expect_wal_replays_to_reference(const std::string& wal_path,
                                     const Reference& reference,
                                     const std::string& context) {
  const std::vector<EngineEvent> logged = read_event_log(wal_path);
  RushScheduler fresh;
  TraceRecorder replay_trace;
  const RunResult replayed = replay_events(EngineConfig{.capacity = 6, .audit_view = true},
                                           fresh, logged, &replay_trace);
  expect_traces_identical(replay_trace.events(), reference.trace.events(), context);

  const std::string dir = ::testing::TempDir();
  const std::string path_a = dir + "/daemon_metrics_a.csv";
  const std::string path_b = dir + "/daemon_metrics_b.csv";
  write_metrics_csv(path_a, replayed);
  write_metrics_csv(path_b, reference.result);
  const std::string bytes = slurp(path_a);
  EXPECT_FALSE(bytes.empty()) << context;
  EXPECT_EQ(bytes, slurp(path_b)) << context;
  std::remove(path_a.c_str());
  std::remove(path_b.c_str());
}

DaemonConfig session_config(const std::string& tag) {
  DaemonConfig config;
  config.capacity = 6;
  config.event_log_path = ::testing::TempDir() + "/" + tag + ".evlog";
  config.snapshot_path = ::testing::TempDir() + "/" + tag + ".rushsnap";
  config.client_time = true;
  config.audit_view = true;
  std::remove(config.event_log_path.c_str());
  std::remove(config.snapshot_path.c_str());
  return config;
}

// ---------- 1. full session: WAL replay ≡ simulator ----------

TEST(DaemonSession, RecordedSessionReplaysByteIdenticalToSimulator) {
  Reference reference;
  run_reference(reference);

  const DaemonConfig config = session_config("daemon_full");
  RushDaemon daemon(config);
  EXPECT_EQ(daemon.recover(), 0u);  // nothing on disk yet
  daemon.start_logging();
  open_session(daemon);

  std::size_t accepted_jobs = 0;
  std::size_t waves_streamed = 0;
  std::size_t predictions_seen = 0;
  for (const EngineEvent& event : reference.recording.events) {
    std::vector<ServerMessage> responses;
    daemon.handle(to_client_message(event), /*now=*/0.0, responses);
    for (const ServerMessage& response : responses) {
      ASSERT_NE(response.kind, ServerMessage::Kind::kError) << response.text;
      if (response.kind == ServerMessage::Kind::kJobAccepted) {
        // Receipt order is submission order: ids must match the reference.
        EXPECT_EQ(response.job_id, static_cast<JobId>(accepted_jobs));
        ++accepted_jobs;
      } else if (response.kind == ServerMessage::Kind::kWave) {
        ++waves_streamed;
        predictions_seen += response.wave.predictions.size();
      }
    }
  }
  ClientMessage shutdown;
  shutdown.kind = ClientMessage::Kind::kShutdown;
  shutdown.time = daemon.engine().now();
  std::vector<ServerMessage> responses;
  daemon.handle(shutdown, 0.0, responses);
  ASSERT_FALSE(responses.empty());
  EXPECT_EQ(responses.back().kind, ServerMessage::Kind::kGoodbye);
  EXPECT_TRUE(daemon.shutdown_requested());

  EXPECT_EQ(accepted_jobs, session_workload().size());
  EXPECT_GT(waves_streamed, 0u);
  EXPECT_GT(predictions_seen, 0u);  // RUSH streams eta_i per unfinished job
  EXPECT_EQ(daemon.stats().assignments,
            static_cast<std::size_t>(reference.result.assignments));

  expect_wal_replays_to_reference(config.event_log_path, reference, "full session");
  std::remove(config.event_log_path.c_str());
}

// ---------- 2. crash mid-session, recover, finish ----------

TEST(DaemonSession, CrashAfterSnapshotRecoversAndFinishesBitIdentically) {
  Reference reference;
  run_reference(reference);
  const std::vector<EngineEvent>& events = reference.recording.events;

  // Crash point: the first wave boundary past the middle of the stream.
  std::size_t cut = events.size() / 2;
  while (cut < events.size() && events[cut].time <= events[cut - 1].time) ++cut;
  ASSERT_LT(cut, events.size());

  const DaemonConfig config = session_config("daemon_crash");
  {
    RushDaemon daemon(config);
    daemon.recover();
    daemon.start_logging();
    open_session(daemon);
    std::vector<ServerMessage> responses;
    for (std::size_t i = 0; i < cut; ++i) {
      daemon.handle(to_client_message(events[i]), 0.0, responses);
    }
    // Persist a snapshot at the boundary, then "crash" (drop the daemon
    // without shutdown; the WAL ends wherever it ends).
    ClientMessage snap;
    snap.kind = ClientMessage::Kind::kSnapshotRequest;
    snap.time = events[cut].time;
    responses.clear();
    daemon.handle(snap, 0.0, responses);
    ASSERT_EQ(responses.size(), 2u);  // ack first, the flushed wave after
    ASSERT_EQ(responses[0].kind, ServerMessage::Kind::kSnapshotSaved);
    EXPECT_GT(responses[0].bytes, 0u);
    EXPECT_EQ(responses[1].kind, ServerMessage::Kind::kWave);
  }

  // Recover: restore the snapshot, replay the (empty) WAL tail, resume the
  // session where the client left off.
  RushDaemon daemon(config);
  EXPECT_EQ(daemon.recover(), 0u);  // snapshot marker is the last WAL record
  daemon.start_logging();
  open_session(daemon);
  std::vector<ServerMessage> responses;
  for (std::size_t i = cut; i < events.size(); ++i) {
    responses.clear();
    daemon.handle(to_client_message(events[i]), 0.0, responses);
    for (const ServerMessage& response : responses) {
      ASSERT_NE(response.kind, ServerMessage::Kind::kError) << response.text;
    }
  }
  ClientMessage shutdown;
  shutdown.kind = ClientMessage::Kind::kShutdown;
  shutdown.time = daemon.engine().now();
  responses.clear();
  daemon.handle(shutdown, 0.0, responses);
  EXPECT_TRUE(daemon.shutdown_requested());

  // The combined WAL (session 1 + marker + session 2) replays to the exact
  // simulator trace: the marker only advances time, which the next client
  // event would have done anyway.
  expect_wal_replays_to_reference(config.event_log_path, reference,
                                  "crash+recover session");
  std::remove(config.event_log_path.c_str());
  std::remove(config.snapshot_path.c_str());
}

// ---------- 3. protocol framing ----------

TEST(DaemonProtocol, ClientFramesRoundTrip) {
  ClientMessage submit;
  submit.kind = ClientMessage::Kind::kSubmitJob;
  submit.time = 42.5;
  submit.job.name = "terasort";
  submit.job.maps = 12;
  submit.job.reduces = 3;
  submit.job.task_seconds = 18.0;
  submit.job.budget = 300.0;
  submit.job.priority = 2.5;

  const std::string frame = encode_frame(submit);
  FrameBuffer buffer;
  buffer.feed(frame);
  std::string body;
  ASSERT_TRUE(buffer.next(body));
  const ClientMessage decoded = decode_client_message(body);
  EXPECT_EQ(decoded.kind, ClientMessage::Kind::kSubmitJob);
  EXPECT_EQ(decoded.time, 42.5);
  EXPECT_EQ(decoded.job.name, "terasort");
  EXPECT_EQ(decoded.job.maps, 12);
  EXPECT_EQ(decoded.job.task_seconds, 18.0);
  EXPECT_FALSE(buffer.next(body));
}

TEST(DaemonProtocol, ServerWaveFrameRoundTrip) {
  ServerMessage wave;
  wave.kind = ServerMessage::Kind::kWave;
  wave.time = 7.0;
  wave.wave.now = 7.0;
  wave.wave.index = 3;
  wave.wave.free_before = 4;
  wave.wave.free_after = 1;
  wave.wave.assignments.push_back(EngineAssignment{2, 5, 1, false});
  EnginePrediction prediction;
  prediction.id = 2;
  prediction.eta = 19.25;
  prediction.target_completion = 30.0;
  prediction.utility_level = 0.7;
  prediction.desired_containers = 3;
  wave.wave.predictions.push_back(prediction);

  const std::string frame = encode_frame(wave);
  FrameBuffer buffer;
  buffer.feed(frame);
  std::string body;
  ASSERT_TRUE(buffer.next(body));
  const ServerMessage decoded = decode_server_message(body);
  EXPECT_EQ(decoded.kind, ServerMessage::Kind::kWave);
  ASSERT_EQ(decoded.wave.assignments.size(), 1u);
  EXPECT_EQ(decoded.wave.assignments[0].job, 2);
  EXPECT_EQ(decoded.wave.assignments[0].container, 5);
  ASSERT_EQ(decoded.wave.predictions.size(), 1u);
  EXPECT_EQ(decoded.wave.predictions[0].eta, 19.25);
  EXPECT_EQ(decoded.wave.predictions[0].desired_containers, 3);
  EXPECT_FALSE(decoded.wave.predictions[0].impossible);
}

TEST(DaemonProtocol, FrameBufferReassemblesChunkedStream) {
  ClientMessage a;
  a.kind = ClientMessage::Kind::kTaskFinished;
  a.time = 1.0;
  a.container = 3;
  a.runtime = 9.5;
  ClientMessage b;
  b.kind = ClientMessage::Kind::kShutdown;
  b.time = 2.0;
  const std::string stream = encode_frame(a) + encode_frame(b);

  FrameBuffer buffer;
  std::string body;
  std::vector<ClientMessage> decoded;
  // Feed one byte at a time: frames must pop exactly twice, in order.
  for (char byte : stream) {
    buffer.feed(std::string_view(&byte, 1));
    while (buffer.next(body)) decoded.push_back(decode_client_message(body));
  }
  ASSERT_EQ(decoded.size(), 2u);
  EXPECT_EQ(decoded[0].kind, ClientMessage::Kind::kTaskFinished);
  EXPECT_EQ(decoded[0].runtime, 9.5);
  EXPECT_EQ(decoded[1].kind, ClientMessage::Kind::kShutdown);

  FrameBuffer abuse;
  std::string oversized(4, '\xff');  // announces a ~4 GiB frame
  abuse.feed(oversized);
  EXPECT_THROW(abuse.next(body), InvalidInput);
}

// ---------- 4. daemon guard rails ----------

TEST(DaemonSession, TimeRegressionAndPostShutdownAreRejected) {
  DaemonConfig config;  // no WAL, no snapshot: in-memory session
  config.capacity = 6;
  config.client_time = true;
  RushDaemon daemon(config);
  daemon.recover();
  daemon.start_logging();
  open_session(daemon);

  JobConfig job;
  job.name = "guard";
  job.maps = 2;
  job.reduces = 0;
  job.task_seconds = 10.0;
  job.budget = 100.0;
  ClientMessage submit;
  submit.kind = ClientMessage::Kind::kSubmitJob;
  submit.time = 50.0;
  submit.job = job;
  std::vector<ServerMessage> responses;
  daemon.handle(submit, 0.0, responses);
  ASSERT_FALSE(responses.empty());
  EXPECT_EQ(responses[0].kind, ServerMessage::Kind::kJobAccepted);

  // Client clock runs backwards: rejected, engine untouched.
  ClientMessage stale;
  stale.kind = ClientMessage::Kind::kTaskFinished;
  stale.time = 10.0;
  stale.container = 0;
  stale.runtime = 5.0;
  responses.clear();
  daemon.handle(stale, 0.0, responses);
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].kind, ServerMessage::Kind::kError);

  // Snapshots are disabled without a path: kError, not a crash.
  ClientMessage snap;
  snap.kind = ClientMessage::Kind::kSnapshotRequest;
  snap.time = 60.0;
  responses.clear();
  daemon.handle(snap, 0.0, responses);
  ASSERT_FALSE(responses.empty());
  EXPECT_EQ(responses[0].kind, ServerMessage::Kind::kError);

  ClientMessage shutdown;
  shutdown.kind = ClientMessage::Kind::kShutdown;
  shutdown.time = 60.0;
  responses.clear();
  daemon.handle(shutdown, 0.0, responses);
  EXPECT_TRUE(daemon.shutdown_requested());

  responses.clear();
  daemon.handle(submit, 0.0, responses);
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].kind, ServerMessage::Kind::kError);
}

// ---------- 5. handshake ----------

TEST(DaemonHandshake, EventsBeforeHelloAreRejected) {
  DaemonConfig config;
  config.capacity = 6;
  config.client_time = true;
  RushDaemon daemon(config);
  daemon.recover();
  daemon.start_logging();
  daemon.begin_session();

  ClientMessage submit;
  submit.kind = ClientMessage::Kind::kSubmitJob;
  submit.time = 1.0;
  submit.job.name = "early";
  submit.job.maps = 1;
  submit.job.task_seconds = 5.0;
  submit.job.budget = 50.0;
  std::vector<ServerMessage> responses;
  daemon.handle(submit, 0.0, responses);
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].kind, ServerMessage::Kind::kError);
  EXPECT_NE(responses[0].text.find("handshake required"), std::string::npos)
      << responses[0].text;
  EXPECT_FALSE(daemon.hello_done());  // transport drops this client
  EXPECT_EQ(daemon.engine().jobs_submitted(), 0u);  // engine untouched

  // A compliant session on the same daemon still works afterwards.
  open_session(daemon);
  responses.clear();
  daemon.handle(submit, 0.0, responses);
  ASSERT_FALSE(responses.empty());
  EXPECT_EQ(responses[0].kind, ServerMessage::Kind::kJobAccepted);
}

TEST(DaemonHandshake, VersionMismatchIsRefused) {
  DaemonConfig config;
  config.capacity = 6;
  config.client_time = true;
  RushDaemon daemon(config);
  daemon.recover();
  daemon.start_logging();
  daemon.begin_session();

  ClientMessage hello;
  hello.kind = ClientMessage::Kind::kHello;
  hello.protocol_version = kProtocolVersion + 1;
  std::vector<ServerMessage> responses;
  daemon.handle(hello, 0.0, responses);
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].kind, ServerMessage::Kind::kError);
  EXPECT_NE(responses[0].text.find("protocol version mismatch"), std::string::npos)
      << responses[0].text;
  EXPECT_FALSE(daemon.hello_done());
}

TEST(DaemonHandshake, HelloFrameRoundTripsAndReopensSessions) {
  // The hello body survives encode -> frame -> decode with its version byte.
  ClientMessage hello;
  hello.kind = ClientMessage::Kind::kHello;
  hello.time = 3.0;
  hello.protocol_version = kProtocolVersion;
  FrameBuffer buffer;
  buffer.feed(encode_frame(hello));
  std::string body;
  ASSERT_TRUE(buffer.next(body));
  const ClientMessage decoded = decode_client_message(body);
  EXPECT_EQ(decoded.kind, ClientMessage::Kind::kHello);
  EXPECT_EQ(decoded.protocol_version, kProtocolVersion);

  ServerMessage ok;
  ok.kind = ServerMessage::Kind::kHelloOk;
  ok.time = 3.0;
  ok.protocol_version = kProtocolVersion;
  buffer.feed(encode_frame(ok));
  ASSERT_TRUE(buffer.next(body));
  const ServerMessage decoded_ok = decode_server_message(body);
  EXPECT_EQ(decoded_ok.kind, ServerMessage::Kind::kHelloOk);
  EXPECT_EQ(decoded_ok.protocol_version, kProtocolVersion);

  // begin_session() resets the gate per connection without touching state.
  DaemonConfig config;
  config.capacity = 6;
  config.client_time = true;
  RushDaemon daemon(config);
  daemon.recover();
  daemon.start_logging();
  open_session(daemon);
  EXPECT_TRUE(daemon.hello_done());
  daemon.begin_session();  // next client connects
  EXPECT_FALSE(daemon.hello_done());
  open_session(daemon);
}

}  // namespace
}  // namespace rush
