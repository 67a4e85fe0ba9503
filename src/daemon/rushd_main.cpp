// rushd — the RUSH scheduler as a long-running socket daemon.
//
//   build/src/rushd --socket /tmp/rushd.sock [options]
//     --socket PATH      Unix stream socket to listen on        (required*)
//     --tcp PORT         ...or a TCP port on 127.0.0.1
//     --capacity N       containers to schedule over            (48)
//     --log FILE         write-ahead event log (enables recovery)
//     --snapshot FILE    snapshot file for kSnapshotRequest / restart
//     --client-time      trust client timestamps (deterministic sessions)
//     --theta T          RUSH percentile requirement            (0.9)
//     --delta D          RUSH entropy threshold                 (0.7)
//     --once             exit when the first client disconnects
//
// Protocol: length-prefixed frames (src/daemon/protocol.h); every accepted
// event is appended to the WAL before it is applied, each dispatch wave is
// streamed back with the plan's per-job completion-time predictions.  On
// start, rushd restores the newest snapshot and replays the log tail, then
// continues the session bit-identically (README "Running rushd").
//
// A malformed flag value (the whole token must parse, and reals must be
// finite) or an invalid configuration (theta outside (0,1), capacity < 1)
// prints one "rushd: invalid ..." line and exits with status 2.
//
// Single-threaded by design: the engine serializes events anyway, and one
// poll loop keeps every accepted event totally ordered without locks.

#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <netinet/in.h>
#include <unistd.h>

#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <optional>
#include <string>
#include <system_error>
#include <vector>

#include "src/daemon/daemon.h"

using namespace rush;

namespace {

struct Options {
  std::string socket_path;
  int tcp_port = -1;
  DaemonConfig daemon;
  bool once = false;
};

/// Rejects a malformed command line: one "rushd: invalid ..." line, exit 2.
[[noreturn]] void invalid(const std::string& what) {
  std::cerr << "rushd: invalid " << what << '\n';
  std::exit(2);
}

/// The whole token as an integer, or exit 2.
int parse_int(const std::string& flag, const std::string& token) {
  int value = 0;
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, value);
  if (token.empty() || ec != std::errc() || ptr != end) {
    invalid(flag + " value '" + token + "' (expected an integer)");
  }
  return value;
}

/// The whole token as a finite number, or exit 2.
double parse_finite(const std::string& flag, const std::string& token) {
  double value = 0.0;
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, value);
  if (token.empty() || ec != std::errc() || ptr != end || !std::isfinite(value)) {
    invalid(flag + " value '" + token + "' (expected a finite number)");
  }
  return value;
}

Options parse_options(int argc, char** argv) {
  Options opt;
  const auto need_value = [&](int& i) -> std::string {
    if (i + 1 >= argc) {
      std::cerr << "rushd: missing value for " << argv[i] << '\n';
      std::exit(2);
    }
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--socket") {
      opt.socket_path = need_value(i);
    } else if (flag == "--tcp") {
      const std::string token = need_value(i);
      opt.tcp_port = parse_int(flag, token);
      if (opt.tcp_port < 1 || opt.tcp_port > 65535) {
        invalid(flag + " value '" + token + "' (expected a port in 1..65535)");
      }
    } else if (flag == "--capacity") {
      opt.daemon.capacity = parse_int(flag, need_value(i));
    } else if (flag == "--log") {
      opt.daemon.event_log_path = need_value(i);
    } else if (flag == "--snapshot") {
      opt.daemon.snapshot_path = need_value(i);
    } else if (flag == "--client-time") {
      opt.daemon.client_time = true;
    } else if (flag == "--theta") {
      opt.daemon.scheduler.theta = parse_finite(flag, need_value(i));
    } else if (flag == "--delta") {
      opt.daemon.scheduler.delta = parse_finite(flag, need_value(i));
    } else if (flag == "--once") {
      opt.once = true;
    } else {
      std::cerr << "rushd: unknown option " << flag << " (see file header)\n";
      std::exit(2);
    }
  }
  if (opt.socket_path.empty() == (opt.tcp_port < 0)) {
    std::cerr << "rushd: need exactly one of --socket PATH or --tcp PORT\n";
    std::exit(2);
  }
  return opt;
}

int listen_unix(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    std::perror("rushd: socket");
    std::exit(1);
  }
  ::unlink(path.c_str());
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    std::cerr << "rushd: socket path too long: " << path << '\n';
    std::exit(2);
  }
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  // rushlint: raw-memory-ok(sockaddr cast required by the BSD socket API; no wire bytes)
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, 1) != 0) {
    std::perror("rushd: bind/listen");
    std::exit(1);
  }
  return fd;
}

int listen_tcp(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    std::perror("rushd: socket");
    std::exit(1);
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  // rushlint: raw-memory-ok(sin_port is defined as network order by the socket API)
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  // rushlint: raw-memory-ok(s_addr is defined as network order by the socket API)
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  // rushlint: raw-memory-ok(sockaddr cast required by the BSD socket API; no wire bytes)
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, 1) != 0) {
    std::perror("rushd: bind/listen");
    std::exit(1);
  }
  return fd;
}

bool write_all(int fd, const std::string& bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + sent, bytes.size() - sent);
    if (n <= 0) return false;
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  ::signal(SIGPIPE, SIG_IGN);
  const Options opt = parse_options(argc, argv);

  // Flags that parse can still name an invalid configuration (theta outside
  // (0,1), a negative delta); the constructors validate it.
  std::optional<RushDaemon> daemon;
  try {
    daemon.emplace(opt.daemon);
  } catch (const InvalidInput& error) {
    invalid(std::string("configuration: ") + error.what());
  }
  try {
    const std::size_t replayed = daemon->recover();
    if (replayed > 0) {
      std::cerr << "rushd: recovered " << replayed << " logged events ("
                << daemon->engine().unfinished_jobs() << " jobs in flight)\n";
    }
    daemon->start_logging();
  } catch (const std::exception& error) {
    std::cerr << "rushd: recovery failed: " << error.what() << '\n';
    return 1;
  }

  const int listen_fd =
      opt.socket_path.empty() ? listen_tcp(opt.tcp_port) : listen_unix(opt.socket_path);
  std::cerr << "rushd: listening on "
            << (opt.socket_path.empty() ? "tcp:" + std::to_string(opt.tcp_port)
                                        : opt.socket_path)
            << " (capacity " << opt.daemon.capacity << ")\n";

  const auto start = std::chrono::steady_clock::now();
  const auto now_seconds = [&start] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
        .count();
  };

  int exit_code = 0;
  while (!daemon->shutdown_requested()) {
    const int client = ::accept(listen_fd, nullptr, nullptr);
    if (client < 0) {
      std::perror("rushd: accept");
      exit_code = 1;
      break;
    }
    daemon->begin_session();
    FrameBuffer frames;
    std::vector<ServerMessage> responses;
    std::string body;
    char chunk[65536];
    bool client_alive = true;
    while (client_alive && !daemon->shutdown_requested()) {
      const ssize_t n = ::read(client, chunk, sizeof(chunk));
      if (n <= 0) break;  // disconnect
      frames.feed(std::string_view(chunk, static_cast<std::size_t>(n)));
      try {
        while (frames.next(body)) {
          responses.clear();
          daemon->handle(decode_client_message(body), now_seconds(), responses);
          for (const ServerMessage& response : responses) {
            if (!write_all(client, encode_frame(response))) {
              client_alive = false;
              break;
            }
          }
          // A failed or missing handshake already got its typed error
          // frame; the session is over.
          if (!daemon->hello_done()) {
            client_alive = false;
            break;
          }
        }
      } catch (const InvalidInput& error) {
        // Framing/decoding failure: the byte stream is unusable, drop the
        // client (engine state is untouched by undecodable frames).
        std::cerr << "rushd: protocol error: " << error.what() << '\n';
        break;
      }
    }
    ::close(client);
    if (opt.once) break;
  }

  ::close(listen_fd);
  if (!opt.socket_path.empty()) ::unlink(opt.socket_path.c_str());
  std::cerr << "rushd: exiting after " << daemon->stats().dispatch_waves
            << " dispatch waves, " << daemon->stats().assignments << " assignments\n";
  return exit_code;
}
