#include "src/common/logging.h"

#include <atomic>
#include <iostream>

namespace rush {
namespace {

// An atomic so an embedding program may log from its own threads: the level
// is a single word read on every log call and written only by tests/main at
// quiescent points; seq_cst loads/stores are the entire protocol, there is
// no multi-field invariant for a mutex to protect.
std::atomic<LogLevel> g_level{LogLevel::kWarning};

const char* level_name(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO";
    case LogLevel::kWarning:
      return "WARN";
    case LogLevel::kError:
      return "ERROR";
    case LogLevel::kOff:
      return "OFF";
  }
  return "?";
}

}  // namespace

void set_log_level(LogLevel level) { g_level.store(level); }

LogLevel log_level() { return g_level.load(); }

void log_message(LogLevel level, const std::string& message) {
  if (level < g_level.load()) return;
  std::cerr << "[rush " << level_name(level) << "] " << message << '\n';
}

}  // namespace rush
