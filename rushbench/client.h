// The closed-loop ResourceManager client and the workloads it plays.
//
// One client drives one daemon over encoded frames, single-threaded: it
// sends a message, waits for the reply, decodes it and acts on it, and only
// then sends the next message.  The client owns the physics the daemon never
// sees: a simulated clock, each task's nominal runtime, node speeds and the
// noise and failure draws.  Each grant comes back as a TaskFinished (or, for
// a failed attempt, a ContainerFreed) at the simulated time the attempt
// ends, and that time is what the client passes to the daemon as `now`.

#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "rushbench/trace.h"
#include "src/cluster/job.h"

namespace rushbench {

struct Workload {
  std::string name;
  /// Arrival-sorted, so submission order equals the daemon's job ids.
  std::vector<rush::JobSpec> jobs;
  /// Client messages between two snapshot requests; the last request
  /// comes snapshot_every / 2 messages before the session ends.
  long snapshot_every = 0;
  /// Probability that a task attempt dies and frees its container.
  double failure_probability = 0.0;
  /// Seed of the client's runtime-noise and failure draws.
  std::uint64_t physics_seed = 0;
  /// Distinct sessions (each from its own seed) one run cycles through, so
  /// its medians and quality figures cover more than one draw of a small
  /// workload.
  int sessions = 1;
};

/// Builds workload `name` (contended, steady or churn) from `seed`; `scale` shrinks the job count (1 is
/// the benchmark's size; the self-test uses a few percent).  Throws
/// std::invalid_argument on an unknown name.
Workload make_workload(const std::string& name, std::uint64_t seed, double scale);

/// The daemon side of one exchange: one client frame in, the reply frames
/// out.  `now` is the simulated clock, which the daemon uses as its host
/// clock.
class FrameServer {
 public:
  virtual ~FrameServer() = default;
  virtual void serve(std::string_view frame, double now, std::string& replies) = 0;
};

struct SessionResult {
  /// Client messages sent after the handshake, shutdown included.
  long messages = 0;
  long errors = 0;  // kError replies
  double wall_s = 0.0;
  /// Per-message reply latency: frame bytes in to last reply frame encoded.
  std::vector<double> reply_us;
  long grants = 0;
  std::uint64_t grant_digest = 0;
  std::uint64_t bytes_in = 0;   // client frame bytes
  std::uint64_t bytes_out = 0;  // reply frame bytes
  bool protocol_ok = true;      // ids, goodbye and reply shapes as expected
  /// Indexed by job id: the sum of the runtimes the client reported, and
  /// the eta of the first wave that predicted the job (NaN if none did).
  std::vector<double> realised_demand;
  std::vector<double> first_eta;
};

struct ClientOptions {
  /// Spans around the client's own work (null: untraced).
  Tracer* tracer = nullptr;
  /// Self-test hook: the grant with this ordinal is removed from the reply
  /// stream before the client sees it (-1: none).
  long drop_grant = -1;
};

/// Sends the hello and checks the reply; false when the handshake failed.
bool handshake(FrameServer& server);

/// Plays `workload` against a daemon that has completed its handshake,
/// through the final shutdown.
SessionResult run_session(const Workload& workload, FrameServer& server,
                          const ClientOptions& options = {});

/// FNV-1a, for the determinism digests.
std::uint64_t fnv1a(std::uint64_t hash, const void* data, std::size_t size);
inline constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;

}  // namespace rushbench
