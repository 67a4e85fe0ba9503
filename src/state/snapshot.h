// Versioned snapshot container (DESIGN.md §5j) — the durable form of a
// running scheduler engine.
//
// A snapshot is a set of named byte sections ("engine", "scheduler", ...),
// each an opaque blob produced by that subsystem's own save_state seam.
// The container adds what the blobs cannot: a magic number, a format
// version, deterministic section ordering (sorted by name, so identical
// state serializes to identical bytes) and an FNV-1a integrity checksum.
//
// Versioning rules: the container version covers the *container layout*
// only; each section carries its own version byte inside its blob (e.g.
// RushScheduler's kSchedulerStateVersion).  Readers reject unknown
// container versions and unknown section versions outright — a snapshot is
// a correctness artifact, and a half-understood one is worse than none.

#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/types.h"

namespace rush {

class Snapshot {
 public:
  /// Container layout version written by serialize().
  static constexpr std::uint32_t kFormatVersion = 1;

  /// Stores (or replaces) one named section.
  void set(const std::string& name, std::string blob);

  bool has(const std::string& name) const { return sections_.count(name) > 0; }

  /// The section's bytes; throws InvalidInput when absent.
  const std::string& get(const std::string& name) const;

  /// Section names in sorted order.
  std::vector<std::string> section_names() const;

  /// Serializes to the on-disk byte layout:
  ///   "RUSHSNAP" magic | u32 format version | u32 section count |
  ///   (string name | string blob)* sorted by name | u64 FNV-1a of the above.
  std::string serialize() const;

  /// Parses serialize()'s output; throws InvalidInput on bad magic, an
  /// unknown format version, a checksum mismatch or truncation.
  static Snapshot parse(std::string_view bytes);

  /// Atomic-ish file write: serialize to `path` + ".tmp", then rename over
  /// `path`, so a crash mid-write never leaves a torn snapshot behind.
  /// Returns the number of bytes written.
  std::size_t write_file(const std::string& path) const;

  /// Reads and parses a snapshot file; throws InvalidInput on IO failure
  /// or any parse error.
  static Snapshot read_file(const std::string& path);

 private:
  /// Ordered map: iteration is sorted by name, which makes serialize()
  /// deterministic without a separate key sort.
  std::map<std::string, std::string> sections_;
};

}  // namespace rush
