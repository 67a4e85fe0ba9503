// Malformed-input tests for the whole persistence/protocol surface: the
// wire primitives, rushd frames, the write-ahead event log and snapshot
// files.  Every case feeds deliberately broken bytes and expects a typed
// InvalidInput — never a crash, an over-read or a silent misparse.  These
// are table-driven siblings of rushlint's static D7–D10 rules: the linter
// proves writers and readers agree, these prove the readers survive bytes
// no writer produced.

#include <cstdio>
#include <exception>
#include <fstream>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/error.h"
#include "src/common/wire.h"
#include "src/config/job_config.h"
#include "src/core/rush_planner.h"
#include "src/core/rush_scheduler.h"
#include "src/daemon/protocol.h"
#include "src/engine/engine.h"
#include "src/engine/event.h"
#include "src/engine/event_log.h"
#include "src/estimator/distribution_estimator.h"
#include "src/state/snapshot.h"

namespace rush {
namespace {

// ---------- wire primitives ----------

TEST(WireFuzzish, TruncatedPrimitivesThrowInsteadOfOverReading) {
  const struct {
    const char* name;
    std::size_t bytes_available;
    void (*read)(WireReader&);
  } rows[] = {
      {"u8 from empty", 0, [](WireReader& in) { in.get_u8(); }},
      {"u32 from 3 bytes", 3, [](WireReader& in) { in.get_u32(); }},
      {"u64 from 7 bytes", 7, [](WireReader& in) { in.get_u64(); }},
      {"i64 from 1 byte", 1, [](WireReader& in) { in.get_i64(); }},
      {"double from 4 bytes", 4, [](WireReader& in) { in.get_double(); }},
      {"16 raw bytes from 5", 5, [](WireReader& in) { in.get_bytes(16); }},
  };
  for (const auto& row : rows) {
    const std::string bytes(row.bytes_available, '\x41');
    WireReader in(bytes);
    EXPECT_THROW(row.read(in), InvalidInput) << row.name;
  }
}

TEST(WireFuzzish, StringLengthPrefixBeyondBufferThrows) {
  WireWriter out;
  out.put_u32(0xFFFFFFFFu);  // announces a ~4 GiB string
  out.put_raw("abc");
  WireReader in(out.buffer());
  EXPECT_THROW(in.get_string(), InvalidInput);
}

TEST(WireFuzzish, AbsurdElementCountIsRejectedBeforeAnyReserve) {
  WireWriter out;
  out.put_u64(1ull << 40);  // a trillion "elements" in a 16-byte buffer
  out.put_u64(7);
  WireReader in(out.buffer());
  EXPECT_THROW(in.get_count(8, "fuzzish: element count"), InvalidInput);

  // A count the remaining bytes can actually back is returned unchanged.
  WireWriter ok;
  ok.put_u64(2);
  ok.put_double(1.0);
  ok.put_double(2.0);
  WireReader in_ok(ok.buffer());
  EXPECT_EQ(in_ok.get_count(8, "fuzzish: element count"), 2u);
}

TEST(WireFuzzish, LeftoverBytesFailExpectEnd) {
  WireWriter out;
  out.put_u32(5);
  out.put_u8(9);  // one byte too many
  WireReader in(out.buffer());
  (void)in.get_u32();
  EXPECT_THROW(in.expect_end("fuzzish: trailing bytes"), InvalidInput);
}

// ---------- rushd frames ----------

/// A syntactically complete frame body with the given leading kind byte.
std::string body_with_kind(std::uint8_t kind) {
  WireWriter body;
  body.put_u8(kind);
  body.put_double(1.0);
  return body.take();
}

TEST(WireFuzzish, MalformedClientBodiesThrowTyped) {
  const struct {
    const char* name;
    std::string body;
  } rows[] = {
      {"empty body", std::string()},
      {"kind 0 is reserved", body_with_kind(0)},
      {"kind 7 is unassigned", body_with_kind(7)},
      {"kind 255", body_with_kind(255)},
      {"submit truncated after time",
       body_with_kind(static_cast<std::uint8_t>(ClientMessage::Kind::kSubmitJob))},
      {"hello missing its version byte",
       body_with_kind(static_cast<std::uint8_t>(ClientMessage::Kind::kHello))},
      {"shutdown with trailing garbage",
       body_with_kind(static_cast<std::uint8_t>(ClientMessage::Kind::kShutdown)) +
           "xx"},
  };
  for (const auto& row : rows) {
    EXPECT_THROW(decode_client_message(row.body), InvalidInput) << row.name;
  }
}

TEST(WireFuzzish, MalformedServerBodiesThrowTyped) {
  const struct {
    const char* name;
    std::string body;
  } rows[] = {
      {"empty body", std::string()},
      {"kind 0 is reserved", body_with_kind(0)},
      {"kind 7 is unassigned", body_with_kind(7)},
      {"goodbye with trailing garbage",
       body_with_kind(static_cast<std::uint8_t>(ServerMessage::Kind::kGoodbye)) +
           "x"},
      {"error text truncated mid-string", [] {
         WireWriter body;
         body.put_u8(static_cast<std::uint8_t>(ServerMessage::Kind::kError));
         body.put_double(1.0);
         body.put_u32(64);  // string announces 64 bytes...
         body.put_raw("short");  // ...carries 5
         return body.take();
       }()},
  };
  for (const auto& row : rows) {
    EXPECT_THROW(decode_server_message(row.body), InvalidInput) << row.name;
  }
}

TEST(WireFuzzish, WaveWithAbsurdAssignmentCountIsRejected) {
  WireWriter body;
  body.put_u8(static_cast<std::uint8_t>(ServerMessage::Kind::kWave));
  body.put_double(1.0);   // message time
  body.put_double(1.0);   // wave.now
  body.put_i64(0);        // index
  body.put_i64(4);        // free_before
  body.put_i64(4);        // free_after
  body.put_u64(1ull << 32);  // assignment count no buffer could back
  EXPECT_THROW(decode_server_message(body.buffer()), InvalidInput);
}

TEST(WireFuzzish, FrameBufferRejectsOversizedAndHoldsPartialFrames) {
  FrameBuffer oversized;
  WireWriter header;
  header.put_u32(FrameBuffer::kMaxFrameBytes + 1);
  oversized.feed(header.buffer());
  std::string body;
  EXPECT_THROW(oversized.next(body), InvalidInput);

  // A truthful header with missing payload bytes is not an error — the
  // buffer just waits for the rest of the stream.
  FrameBuffer partial;
  WireWriter announce;
  announce.put_u32(10);
  partial.feed(announce.buffer());
  partial.feed("12345");  // 5 of 10 payload bytes
  EXPECT_FALSE(partial.next(body));
  partial.feed("67890");
  ASSERT_TRUE(partial.next(body));
  EXPECT_EQ(body, "1234567890");
}

// ---------- engine events and the WAL ----------

TEST(WireFuzzish, UnknownEventKindByteThrows) {
  for (const std::uint8_t kind : {std::uint8_t{0}, std::uint8_t{5},
                                  std::uint8_t{200}}) {
    WireWriter out;
    out.put_u8(kind);
    out.put_double(3.0);
    WireReader in(out.buffer());
    EXPECT_THROW(deserialize_event(in), InvalidInput)
        << "kind byte " << static_cast<int>(kind);
  }
}

TEST(WireFuzzish, EventKindNamesStayInSync) {
  EXPECT_STREQ(event_kind_name(EngineEvent::Kind::kJobSubmitted), "job-submitted");
  EXPECT_STREQ(event_kind_name(EngineEvent::Kind::kTaskFinished), "task-finished");
  EXPECT_STREQ(event_kind_name(EngineEvent::Kind::kContainerFreed),
               "container-freed");
  EXPECT_STREQ(event_kind_name(EngineEvent::Kind::kSnapshotRequested),
               "snapshot-requested");
}

std::vector<EngineEvent> two_event_log_events() {
  std::vector<EngineEvent> events;
  events.push_back(make_task_finished(1.0, 2, 9.5));
  events.push_back(make_container_freed(2.0, 2, 0.5));
  return events;
}

TEST(WireFuzzish, CorruptedLogRecordFailsItsChecksum) {
  std::string bytes = serialize_events(two_event_log_events());
  ASSERT_GT(bytes.size(), 8u);
  bytes[6] ^= 0x01;  // flip one payload bit in the first record
  EXPECT_THROW(deserialize_events(bytes), InvalidInput);
}

TEST(WireFuzzish, TruncatedLogTailIsCorruptionUnlessTornTailAllowed) {
  const std::string bytes = serialize_events(two_event_log_events());
  const std::string torn = bytes.substr(0, bytes.size() - 5);
  // Strict parse: corruption.
  EXPECT_THROW(deserialize_events(torn), InvalidInput);

  // Crash-recovery parse: the torn final record is dropped, the rest loads.
  const std::string path = ::testing::TempDir() + "/fuzzish_torn.evlog";
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(torn.data(), static_cast<std::streamsize>(torn.size()));
  }
  const std::vector<EngineEvent> recovered =
      read_event_log(path, /*allow_torn_tail=*/true);
  ASSERT_EQ(recovered.size(), 1u);
  EXPECT_EQ(recovered[0].kind, EngineEvent::Kind::kTaskFinished);
  std::remove(path.c_str());
}

// ---------- snapshot files ----------

std::string valid_snapshot_bytes() {
  Snapshot snapshot;
  snapshot.set("engine", "state-bytes");
  snapshot.set("scheduler", "more-state");
  return snapshot.serialize();
}

TEST(WireFuzzish, DamagedSnapshotsAreRejectedTyped) {
  const std::string good = valid_snapshot_bytes();
  // Round-trip control: the undamaged bytes parse.
  EXPECT_EQ(Snapshot::parse(good).section_names().size(), 2u);

  const struct {
    const char* name;
    std::string bytes;
  } rows[] = {
      {"empty file", std::string()},
      {"shorter than any header", std::string("RUSH", 4)},
      {"bad magic", [&] {
         std::string bytes = good;
         bytes[0] = 'X';
         return bytes;
       }()},
      {"unknown format version", [&] {
         std::string bytes = good;
         bytes[8] = '\x7f';  // version u32 follows the 8 magic bytes
         return bytes;
       }()},
      {"flipped payload bit fails the checksum", [&] {
         std::string bytes = good;
         bytes[bytes.size() / 2] ^= 0x10;
         return bytes;
       }()},
      {"truncated mid-section", good.substr(0, good.size() - 12)},
  };
  for (const auto& row : rows) {
    EXPECT_THROW(Snapshot::parse(row.bytes), InvalidInput) << row.name;
  }
}

// ---------- forged element counts behind valid framing ----------

/// An element count no buffer could back.
constexpr std::uint64_t kForgedCount = 1ull << 61;

/// An empty engine's state section with its job count forged.  The count
/// is followed only by the five i64 engine stats, so it sits 48 bytes from
/// the end.  Re-wrapped through Snapshot::parse, so the checksum is valid.
Snapshot engine_snapshot_with_forged_job_count() {
  RushScheduler scheduler;
  const SchedulerEngine engine(EngineConfig{.capacity = 2}, scheduler);
  Snapshot saved;
  engine.save_state(saved);
  std::string section = saved.get("engine");
  WireWriter forged;
  forged.put_u64(kForgedCount);
  section.replace(section.size() - 48, 8, forged.buffer());
  saved.set("engine", std::move(section));
  return Snapshot::parse(saved.serialize());
}

TEST(WireFuzzish, ForgedStateCountsAreRejectedTyped) {
  WireWriter hint;
  hint.put_u64(kForgedCount);  // peel hint entries
  WireWriter bootstrap;
  bootstrap.put_double(60.0);  // prior mean
  bootstrap.put_double(30.0);  // prior stddev
  bootstrap.put_u64(3);        // prior min_samples
  bootstrap.put_u64(kForgedCount);  // samples
  const Snapshot engine_state = engine_snapshot_with_forged_job_count();

  const struct {
    const char* name;
    std::function<void()> read;
  } rows[] = {
      {"planner peel hint count",
       [&] {
         RushPlanner planner(RushConfig{});
         WireReader in(hint.buffer());
         planner.restore_warm_state(in);
       }},
      {"bootstrap sample count",
       [&] {
         BootstrapEstimator estimator;
         WireReader in(bootstrap.buffer());
         estimator.restore_state(in);
       }},
      {"engine job count",
       [&] {
         RushScheduler scheduler;
         SchedulerEngine engine(EngineConfig{.capacity = 2}, scheduler);
         engine.restore_state(engine_state);
       }},
  };
  for (const auto& row : rows) {
    // The count itself must be rejected, as InvalidInput, before any
    // reserve: not a std::length_error or bad_alloc from the allocator.
    try {
      row.read();
      ADD_FAILURE() << row.name << ": forged count accepted";
    } catch (const InvalidInput& e) {
      EXPECT_NE(std::string(e.what()).find("count"), std::string::npos)
          << row.name << ": " << e.what();
    } catch (const std::exception& e) {
      ADD_FAILURE() << row.name << ": untyped " << e.what();
    }
  }
}

// ---------- forged container and task indices behind valid framing ----------

/// Overwrites bytes [offset, offset + bytes.size()) of a section.
void patch(std::string& section, std::size_t offset, const std::string& bytes) {
  ASSERT_LE(offset + bytes.size(), section.size());
  section.replace(offset, bytes.size(), bytes);
}

std::string u8_bytes(std::uint8_t v) {
  WireWriter out;
  out.put_u8(v);
  return out.take();
}

std::string u32_bytes(std::uint32_t v) {
  WireWriter out;
  out.put_u32(v);
  return out.take();
}

std::string i64_bytes(std::int64_t v) {
  WireWriter out;
  out.put_i64(v);
  return out.take();
}

/// Restores `saved` with its engine section patched at `offset`, re-wrapped
/// through Snapshot::parse so the checksum is valid, into a fresh engine of
/// `capacity`; the restore must throw InvalidInput containing `message`.
void expect_forged_engine_rejected(const Snapshot& saved, std::size_t offset,
                                   const std::string& bytes, ContainerCount capacity,
                                   const char* name, const char* message) {
  std::string section = saved.get("engine");
  patch(section, offset, bytes);
  Snapshot snapshot = saved;
  snapshot.set("engine", std::move(section));
  const Snapshot parsed = Snapshot::parse(snapshot.serialize());
  RushScheduler fresh;
  SchedulerEngine restored(EngineConfig{.capacity = capacity}, fresh);
  try {
    restored.restore_state(parsed);
    ADD_FAILURE() << name << ": forged engine state accepted";
  } catch (const InvalidInput& e) {
    EXPECT_NE(std::string(e.what()).find(message), std::string::npos) << name << ": " << e.what();
  } catch (const std::exception& e) {
    ADD_FAILURE() << name << ": untyped " << e.what();
  }
}

TEST(WireFuzzish, ForgedStateIndicesAreRejectedTyped) {
  // Capacity 4: job 0 (one map) ran and finished, job 1 (two maps, one
  // reduce) runs both maps, so two containers are busy, two are free and
  // the reduce is pending.
  RushScheduler scheduler;
  SchedulerEngine engine(EngineConfig{.capacity = 4}, scheduler);
  JobConfig one_map;
  one_map.name = "done";
  one_map.maps = 1;
  JobConfig two_maps = one_map;
  two_maps.name = "running";
  two_maps.maps = 2;
  two_maps.reduces = 1;
  engine.process(make_job_submitted(0.0, 0, one_map));
  int first = 0;
  while (engine.attempt_sequence(first) == 0) ++first;
  engine.process(make_task_finished(1.0, first, 1.0));
  engine.process(make_job_submitted(2.0, 1, two_maps));
  std::vector<int> busy;
  std::vector<int> idle;
  for (int c = 0; c < 4; ++c) (engine.attempt_sequence(c) != 0 ? busy : idle).push_back(c);
  ASSERT_EQ(busy.size(), 2u);
  Snapshot saved;
  engine.save_state(saved);
  const std::string section = saved.get("engine");

  // Section layout: u8 version, f64 now, i64 capacity, u64 free count, a
  // u32 per free container, then per container an i64 job, an i64 task
  // index and a bool; the jobs follow, and the section ends with job 1's
  // one pending reduce and five i64 stats.
  const std::size_t free_at = 1 + 8 + 8 + 8;
  const auto attempt_at = [&](int container) {
    return free_at + 4 * idle.size() + 17 * static_cast<std::size_t>(container);
  };
  const std::size_t pending_reduce_at = section.size() - 5 * 8 - 8;

  const struct {
    const char* name;
    std::size_t offset;
    std::string bytes;
    const char* message;
  } rows[] = {
      {"free index past capacity", free_at, u32_bytes(1000), "free container index"},
      {"free index listed twice", free_at + 4, u32_bytes(static_cast<std::uint32_t>(idle[0])),
       "listed twice"},
      {"free container running an attempt", attempt_at(idle[0]), i64_bytes(1),
       "either free or running"},
      {"busy container running no attempt", attempt_at(busy[0]), i64_bytes(kInvalidJob),
       "either free or running"},
      {"attempt of a job never submitted", attempt_at(busy[0]), i64_bytes(7),
       "unknown or finished job"},
      {"attempt of a finished job", attempt_at(busy[0]), i64_bytes(0),
       "unknown or finished job"},
      {"running task index past the job's maps", attempt_at(busy[0]) + 8, i64_bytes(99),
       "attempt task index"},
      {"pending task index past the job's reduces", pending_reduce_at, i64_bytes(99),
       "pending reduce index"},
  };
  for (const auto& row : rows) {
    expect_forged_engine_rejected(saved, row.offset, row.bytes, 4, row.name, row.message);
  }

  // Control: the unforged section restores.
  RushScheduler fresh;
  SchedulerEngine restored(EngineConfig{.capacity = 4}, fresh);
  EXPECT_NO_THROW(restored.restore_state(Snapshot::parse(saved.serialize())));
}

// ---------- forged estimator state behind valid framing ----------

std::string f64_bytes(double v) {
  WireWriter out;
  out.put_double(v);
  return out.take();
}

std::string u64_bytes(std::uint64_t v) {
  WireWriter out;
  out.put_u64(v);
  return out.take();
}

/// A two-container engine holding jobs 0 and 1, two maps each, with one
/// completed map per job, so each job has an estimator with one sample
/// (and, phase-aware, a phase estimator).
struct TwoJobEngine {
  explicit TwoJobEngine(const RushConfig& config)
      : scheduler(config), engine(EngineConfig{.capacity = 2}, scheduler) {
    JobConfig job;
    job.name = "two maps";
    job.maps = 2;
    engine.process(make_job_submitted(0.0, 0, job));  // job 0 runs on both
    engine.process(make_task_finished(1.0, 0, 1.0));   // container 0 idles
    engine.process(make_job_submitted(2.0, 1, job));  // job 1 takes it
    engine.process(make_task_finished(3.0, 0, 1.0));
    engine.flush();
  }
  RushScheduler scheduler;
  SchedulerEngine engine;
};

TEST(WireFuzzish, ForgedEstimatorStateIsRejectedTyped) {
  // Scheduler section layout: u8 version, the estimator kind (u32 length
  // and bytes), a bool, the global runtime moments (u64 and two f64), the
  // estimator count, then per job an i64 id and its estimator's state, then
  // the phase estimators the same way.  Every estimator state opens with
  // the prior: f64 mean, f64 stddev, u64 min_samples.  With one sample, a
  // gaussian state is 48 bytes (prior, u64 count, f64 mean, f64 m2), ewma
  // adds an f64 alpha after the prior, bootstrap writes the prior, the
  // samples (u64 count, one f64), the moments, u64 resamples and u64 seed,
  // and a phase estimator is the prior plus two sets of moments (72).
  const auto first_estimator_at = [](const std::string& kind) {
    return 1 + 4 + kind.size() + 1 + 24 + 8 + 8;
  };
  const std::size_t gaussian = first_estimator_at("gaussian");
  const std::size_t first_phase = gaussian + 48 + 8 + 48 + 8 + 8;
  const std::size_t global_moments = gaussian - 8 - 8 - 24;
  const std::size_t bootstrap = first_estimator_at("bootstrap");

  const struct {
    const char* name;
    const char* kind;
    bool phase_aware;
    std::size_t offset;
    std::string bytes;
    const char* message;
  } rows[] = {
      {"negative prior mean", "gaussian", false, gaussian, f64_bytes(-5.0),
       "prior mean_runtime"},
      {"negative prior stddev", "gaussian", false, gaussian + 8, f64_bytes(-1.0),
       "prior stddev_runtime"},
      {"ewma alpha above one", "ewma", false, first_estimator_at("ewma") + 24,
       f64_bytes(1.5), "alpha"},
      {"bootstrap resamples not its own", "bootstrap", false,
       bootstrap + 24 + 16 + 24, u64_bytes(1ull << 62), "resamples"},
      {"duplicate estimator id", "gaussian", false, gaussian + 48, i64_bytes(0),
       "estimator ids must be strictly ascending"},
      {"non-positive phase prior mean", "gaussian", true, first_phase, f64_bytes(0.0),
       "PhaseAwareEstimator::restore_state: prior mean_runtime"},
      {"descending phase estimator ids", "gaussian", true, first_phase + 72, i64_bytes(-3),
       "phase estimator ids must be strictly ascending"},
      {"phase estimator for a job with no estimator", "gaussian", true, first_phase + 72,
       i64_bytes(5), "phase estimator id names no estimator"},
      {"phase estimators without phase-aware estimation", "gaussian", false,
       gaussian + 48 + 8 + 48, u64_bytes(1),
       "phase estimators without phase-aware estimation"},
      {"scheduler state version 1", "gaussian", false, 0, u8_bytes(1),
       "RushScheduler::restore_state: unsupported scheduler state version"},
      {"moments without samples", "gaussian", false, gaussian + 24, u64_bytes(0),
       "GaussianEstimator::restore_state: moment mean and m2 must be 0 with no samples"},
      {"negative moment mean", "gaussian", false, gaussian + 32, f64_bytes(-5.0),
       "GaussianEstimator::restore_state: moment mean must be finite and positive"},
      {"negative moment m2", "gaussian", false, gaussian + 40, f64_bytes(-1.0),
       "GaussianEstimator::restore_state: moment m2 must be finite and non-negative"},
      {"negative global mean", "gaussian", false, global_moments + 8, f64_bytes(-5.0),
       "RushScheduler::restore_state: global: moment mean must be finite and positive"},
      {"ewma negative variance", "ewma", false, first_estimator_at("ewma") + 48,
       f64_bytes(-1.0), "EwmaEstimator::restore_state: moment var must be finite"},
      {"map phase mean not finite", "gaussian", true, first_phase + 32,
       f64_bytes(std::numeric_limits<double>::infinity()),
       "map phase: moment mean must be finite and positive"},
      {"reduce phase mean without samples", "gaussian", true, first_phase + 56,
       f64_bytes(3.0), "reduce phase: moment mean and m2 must be 0 with no samples"},
      {"bootstrap moment count not its sample count", "bootstrap", false, bootstrap + 40,
       u64_bytes(2), "moment count must equal the sample count"},
      {"bootstrap zero sample", "bootstrap", false, bootstrap + 32, f64_bytes(0.0),
       "BootstrapEstimator::restore_state: samples must be finite and positive"},
  };
  for (const auto& row : rows) {
    RushConfig config;
    config.estimator_kind = row.kind;
    config.phase_aware_estimation = row.phase_aware;
    TwoJobEngine saved_engine(config);
    Snapshot saved;
    saved_engine.engine.save_state(saved);
    const auto restore = [&](const Snapshot& snapshot) {
      RushScheduler fresh(config);
      SchedulerEngine restored(EngineConfig{.capacity = 2}, fresh);
      restored.restore_state(snapshot);
    };
    // Control: the unforged state restores.
    EXPECT_NO_THROW(restore(Snapshot::parse(saved.serialize()))) << row.name;

    std::string section = saved.get("scheduler");
    patch(section, row.offset, row.bytes);
    saved.set("scheduler", std::move(section));
    try {
      restore(Snapshot::parse(saved.serialize()));  // valid checksum
      ADD_FAILURE() << row.name << ": forged state accepted";
    } catch (const InvalidInput& e) {
      EXPECT_NE(std::string(e.what()).find(row.message), std::string::npos)
          << row.name << ": " << e.what();
    } catch (const std::exception& e) {
      ADD_FAILURE() << row.name << ": untyped " << e.what();
    }
  }
}


// ---------- forged job state behind valid framing ----------

TEST(WireFuzzish, ForgedJobStateIsRejectedTyped) {
  // Two containers run one three-map job with one map done: container 1
  // ran map 0, and after the wave maps 1 and 2 run with nothing pending.
  RushScheduler scheduler;
  SchedulerEngine engine(EngineConfig{.capacity = 2}, scheduler);
  JobConfig three_maps;
  three_maps.name = "three maps";
  three_maps.maps = 3;
  engine.process(make_job_submitted(0.0, 0, three_maps));
  engine.process(make_task_finished(1.0, 1, 1.0));
  engine.flush();
  Snapshot saved;
  engine.save_state(saved);
  const std::string section = saved.get("engine");

  // Section layout: u8 version and f64 now first; the job's config ends
  // with u32 maps, u32 reduces, f64 task seconds, f64 arrival and a u8
  // sensitivity; then its i64 maps_completed, completed, running and
  // failures, a bool finished, an f64 completion, a u8 done flag per map,
  // the u64 pending map and reduce counts (both 0) and five i64 stats.
  const std::size_t flags_at = section.size() - 5 * 8 - 8 - 8 - 3;
  const std::size_t completion_at = flags_at - 8;
  const std::size_t finished_at = completion_at - 1;
  const std::size_t counters_at = finished_at - 4 * 8;
  const std::size_t maps_at = counters_at - 1 - 8 - 8 - 4 - 4;
  ASSERT_EQ(section.substr(flags_at, 3), std::string("\x01\x00\x00", 3));

  const struct {
    const char* name;
    std::size_t offset;
    std::string bytes;
    const char* message;
  } rows[] = {
      {"engine state version 1", 0, u8_bytes(1), "unsupported engine state version"},
      {"clock not a number", 1, f64_bytes(std::numeric_limits<double>::quiet_NaN()),
       "clock must be finite and non-negative"},
      {"clock before zero", 1, f64_bytes(-1.0), "clock must be finite and non-negative"},
      {"map count past any int", maps_at, u32_bytes(0xFFFFFFFFu), "negative task count"},
      {"map count the section cannot back", maps_at, u32_bytes(1000000),
       "task count exceeds the section"},
      {"maps_completed past the maps", counters_at, i64_bytes(7),
       "maps_completed out of range"},
      {"negative maps_completed", counters_at, i64_bytes(-1), "maps_completed out of range"},
      {"completed past the tasks", counters_at + 8, i64_bytes(7),
       "completed reduces out of range"},
      {"completed below maps_completed", counters_at + 8, i64_bytes(0),
       "completed reduces out of range"},
      {"negative running", counters_at + 16, i64_bytes(-4), "running out of range"},
      {"running unlike the containers", counters_at + 16, i64_bytes(1),
       "running must equal the containers running its attempts"},
      {"negative failures", counters_at + 24, i64_bytes(-1), "failures out of range"},
      {"finished with maps left", finished_at, u8_bytes(1),
       "finished flag must equal completed == total"},
      {"completion while unfinished", completion_at, f64_bytes(5.0),
       "completion must be finite exactly when finished"},
      {"done flag of 2", flags_at, u8_bytes(2), "done flags must be 0 or 1"},
      {"done flags unlike maps_completed", flags_at + 1, u8_bytes(1),
       "done flags must count the completed maps and reduces"},
  };
  for (const auto& row : rows) {
    expect_forged_engine_rejected(saved, row.offset, row.bytes, 2, row.name, row.message);
  }

  // Control: the unforged section restores.
  RushScheduler fresh;
  SchedulerEngine restored(EngineConfig{.capacity = 2}, fresh);
  EXPECT_NO_THROW(restored.restore_state(Snapshot::parse(saved.serialize())));
}

}  // namespace
}  // namespace rush
