#include "src/state/snapshot.h"

#include <cstdio>
#include <fstream>

#include "src/common/error.h"
#include "src/common/wire.h"

namespace rush {

namespace {
constexpr char kMagic[] = "RUSHSNAP";  // 8 bytes, no terminator on the wire
constexpr std::size_t kMagicLen = 8;
}  // namespace

void Snapshot::set(const std::string& name, std::string blob) {
  require(!name.empty(), "Snapshot::set: empty section name");
  sections_[name] = std::move(blob);
}

const std::string& Snapshot::get(const std::string& name) const {
  const auto it = sections_.find(name);
  require(it != sections_.end(), "Snapshot::get: no section named '" + name + "'");
  return it->second;
}

std::vector<std::string> Snapshot::section_names() const {
  std::vector<std::string> names;
  names.reserve(sections_.size());
  for (const auto& [name, blob] : sections_) names.push_back(name);
  return names;
}

std::string Snapshot::serialize() const {
  WireWriter out;
  for (std::size_t i = 0; i < kMagicLen; ++i) out.put_u8(static_cast<std::uint8_t>(kMagic[i]));
  out.put_u32(kFormatVersion);
  out.put_u32(static_cast<std::uint32_t>(sections_.size()));
  for (const auto& [name, blob] : sections_) {  // std::map: sorted by name
    out.put_string(name);
    out.put_string(blob);
  }
  const std::uint64_t checksum = wire_fnv1a(out.buffer());
  // rushlint: wire-asym(trailing checksum; the reader consumes it first, from the tail)
  out.put_u64(checksum);
  return out.take();
}

Snapshot Snapshot::parse(std::string_view bytes) {
  require(bytes.size() >= kMagicLen + 4 + 4 + 8, "Snapshot::parse: truncated snapshot");
  // The trailing u64 checks everything before it.
  const std::string_view payload = bytes.substr(0, bytes.size() - 8);
  WireReader tail(bytes.substr(bytes.size() - 8));
  // rushlint: wire-asym(trailing checksum; read out of line-order via the 8-byte tail)
  const std::uint64_t want = tail.get_u64();
  require(wire_fnv1a(payload) == want, "Snapshot::parse: checksum mismatch");

  WireReader in(payload);
  for (std::size_t i = 0; i < kMagicLen; ++i) {
    require(in.get_u8() == static_cast<std::uint8_t>(kMagic[i]),
            "Snapshot::parse: bad magic (not a RUSH snapshot)");
  }
  const std::uint32_t version = in.get_u32();
  require(version == kFormatVersion,
          "Snapshot::parse: unknown snapshot format version " + std::to_string(version));
  Snapshot snapshot;
  const std::uint32_t count = in.get_u32();
  for (std::uint32_t i = 0; i < count; ++i) {
    std::string name = in.get_string();
    std::string blob = in.get_string();
    require(snapshot.sections_.count(name) == 0,
            "Snapshot::parse: duplicate section '" + name + "'");
    snapshot.sections_.emplace(std::move(name), std::move(blob));
  }
  in.expect_end("Snapshot::parse");
  return snapshot;
}

std::size_t Snapshot::write_file(const std::string& path) const {
  const std::string bytes = serialize();
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    require(out.good(), "Snapshot::write_file: cannot open " + tmp);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    out.flush();
    require(out.good(), "Snapshot::write_file: short write to " + tmp);
  }
  require(std::rename(tmp.c_str(), path.c_str()) == 0,
          "Snapshot::write_file: rename to " + path + " failed");
  return bytes.size();
}

Snapshot Snapshot::read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  require(in.good(), "Snapshot::read_file: cannot open " + path);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  return parse(bytes);
}

}  // namespace rush
