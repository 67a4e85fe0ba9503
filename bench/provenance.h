// Build/run provenance for the benchmark JSON emitters.
//
// BENCH_dispatch.json is compared across commits and machines, so its
// emitter stamps where the numbers came from:
//
//   git_sha     $RUSH_GIT_SHA when set (CI passes the exact commit), else
//               `git rev-parse HEAD`, else "unknown" (tarball builds)
//   nproc       std::thread::hardware_concurrency() — the figure that
//               decides planner lane counts and therefore wall times
//   build_type  CMAKE_BUILD_TYPE baked in at compile time (a Debug number
//               must never be mistaken for a regression)

#pragma once

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

namespace rush_bench {

inline std::string git_sha() {
  if (const char* env = std::getenv("RUSH_GIT_SHA");
      env != nullptr && *env != '\0') {
    return env;
  }
  std::string sha;
  if (std::FILE* pipe = ::popen("git rev-parse HEAD 2>/dev/null", "r")) {
    char buffer[128] = {};
    if (std::fgets(buffer, sizeof buffer, pipe) != nullptr) sha = buffer;
    ::pclose(pipe);
  }
  while (!sha.empty() &&
         std::isspace(static_cast<unsigned char>(sha.back()))) {
    sha.pop_back();
  }
  // Anything but a full hex id means we are not in a usable checkout.
  if (sha.size() < 7) return "unknown";
  for (const char c : sha) {
    if (std::isxdigit(static_cast<unsigned char>(c)) == 0) return "unknown";
  }
  return sha;
}

inline const char* build_type() {
#if defined(RUSH_BUILD_TYPE)
  return RUSH_BUILD_TYPE;
#else
  return "unknown";
#endif
}

/// The provenance fields as JSON object members, one per line at two-space
/// indent, each line comma-terminated — drop the result directly after the
/// emitter's opening `"bench"` field.
inline std::string provenance_json_fields() {
  std::string out;
  out += "  \"git_sha\": \"" + git_sha() + "\",\n";
  out += "  \"nproc\": " +
         std::to_string(std::thread::hardware_concurrency()) + ",\n";
  out += "  \"build_type\": \"" + std::string(build_type()) + "\",\n";
  return out;
}

}  // namespace rush_bench
