// Write-ahead event log (DESIGN.md §5j).
//
// Every event the engine accepts is appended as one length-prefixed,
// checksummed record and flushed before the daemon acknowledges it, so the
// log always holds a usable prefix of the session.  Because events are the
// engine's *only* inputs, the log doubles as a deterministic replay
// harness (replay.h) and as the recovery tail after a snapshot restore:
// replay the records after the last SnapshotRequested marker and the
// engine continues bit-identically.
//
// Record layout: u32 body length | body (serialize_event) | u64 FNV-1a of
// the body.  A truncated or corrupt final record (crash mid-append) is
// tolerated by read_event_log's `allow_torn_tail` mode — everything before
// it is intact by construction.

#pragma once

#include <fstream>
#include <string>
#include <vector>

#include "src/engine/event.h"

namespace rush {

class EventLogWriter {
 public:
  /// Opens `path` for appending (`truncate` starts a fresh log).
  explicit EventLogWriter(const std::string& path, bool truncate = true);

  /// Appends one record and flushes it to the OS.
  void append(const EngineEvent& event);

  long records_written() const { return records_; }

 private:
  std::ofstream out_;
  std::string path_;
  long records_ = 0;
};

/// Reads every intact record.  With `allow_torn_tail` a truncated or
/// checksum-failing final record is dropped silently (crash tolerance);
/// corruption anywhere else still throws InvalidInput.
std::vector<EngineEvent> read_event_log(const std::string& path,
                                        bool allow_torn_tail = true);

/// In-memory (de)serialization of a whole stream in the log's record
/// layout — a test helper for round-trip and corruption checks; the daemon
/// protocol frames each event on its own.
std::string serialize_events(const std::vector<EngineEvent>& events);
std::vector<EngineEvent> deserialize_events(std::string_view bytes);

}  // namespace rush
