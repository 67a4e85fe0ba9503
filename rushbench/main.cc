// rushbench — one closed-loop rushd session benchmark (README.md).
//
//   rushbench --workload contended|steady|churn --seed N --seconds S
//             --trace 0|1 [--workdir DIR] [--scale X] [--drop-grant K]
//
// --trace 0 repeats untraced sessions against an in-process RushDaemon for
// about S seconds and reports the end-to-end metrics; --trace 1 alternates
// untraced and traced sessions and reports the per-layer split.  Every run
// gates correctness (all jobs finish, recovery reproduces the job records,
// the traced pipeline grants what the daemon grants, repeated sessions are
// identical) and exits 1 when a gate fails.  The last stdout line is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "rushbench/client.h"
#include "rushbench/trace.h"
#include "rushbench/traced.h"
#include "src/daemon/daemon.h"

namespace rushbench {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Nearest-rank quantile; 0 for an empty sample.
double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(values.size())));
  const std::size_t index = std::min(values.size() - 1, rank == 0 ? 0 : rank - 1);
  std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(index),
                   values.end());
  return values[index];
}

double median(const std::vector<double>& values) { return quantile(values, 0.5); }

double sum(const std::vector<double>& values) {
  double total = 0.0;
  for (const double v : values) total += v;
  return total;
}

/// Fixed-size log histogram of positive values, 1% buckets from 0.01 us up:
/// a run pools the reply latencies of all its sessions without its memory
/// growing with their number (peak_rss_mb is a metric).
class LogHistogram {
 public:
  void add(double value) {
    const double bucket = std::floor(std::log(std::max(value, kMin) / kMin) / std::log(kGrowth));
    ++counts_[static_cast<std::size_t>(std::min(bucket, static_cast<double>(kBuckets - 1)))];
    ++total_;
  }

  /// The q-quantile, interpolated geometrically within its bucket.
  double quantile(double q) const {
    const double rank = q * static_cast<double>(total_);
    double below = 0.0;
    for (std::size_t b = 0; b < kBuckets; ++b) {
      const auto count = static_cast<double>(counts_[b]);
      if (count > 0.0 && below + count >= rank) {
        return kMin * std::pow(kGrowth, static_cast<double>(b) + (rank - below) / count);
      }
      below += count;
    }
    return 0.0;
  }

 private:
  static constexpr double kMin = 0.01;
  static constexpr double kGrowth = 1.01;
  static constexpr std::size_t kBuckets = 2400;  // up to about 2e8 us
  std::array<long, kBuckets> counts_{};
  long total_ = 0;
};

/// The untraced daemon behind the frame seam: decode, RushDaemon::handle,
/// encode — what the ResourceManager waits on.
class DaemonServer final : public FrameServer {
 public:
  explicit DaemonServer(rush::RushDaemon& daemon) : daemon_(daemon) {}

  void serve(std::string_view frame, double now, std::string& replies) override {
    buffer_.feed(frame);
    while (buffer_.next(body_)) {
      responses_.clear();
      daemon_.handle(rush::decode_client_message(body_), now, responses_);
      for (const rush::ServerMessage& response : responses_) {
        replies += rush::encode_frame(response);
      }
    }
  }

 private:
  rush::RushDaemon& daemon_;
  rush::FrameBuffer buffer_;
  std::string body_;
  std::vector<rush::ServerMessage> responses_;
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir = ".";
  double scale = 1.0;
  long drop_grant = -1;
};

struct Files {
  std::string wal;
  std::string snapshot;
  void remove() const {
    std::filesystem::remove(wal);
    std::filesystem::remove(snapshot);
    std::filesystem::remove(snapshot + ".tmp");
  }
};

bool same_records(const std::vector<rush::JobRecord>& a, const std::vector<rush::JobRecord>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const rush::JobRecord& x = a[i];
    const rush::JobRecord& y = b[i];
    if (x.id != y.id || x.name != y.name || x.arrival != y.arrival || x.budget != y.budget ||
        x.priority != y.priority || x.sensitivity != y.sensitivity ||
        x.completion != y.completion || x.utility != y.utility ||
        x.best_possible_utility != y.best_possible_utility || x.tasks != y.tasks) {
      return false;
    }
  }
  return true;
}

std::uint64_t records_digest(const std::vector<rush::JobRecord>& records) {
  std::uint64_t hash = kFnvOffset;
  for (const rush::JobRecord& r : records) {
    const double fields[] = {static_cast<double>(r.id), r.arrival, r.budget, r.priority,
                             r.completion, r.utility, r.best_possible_utility,
                             static_cast<double>(r.tasks)};
    hash = fnv1a(hash, fields, sizeof fields);
  }
  return hash;
}

/// Plan quality of one session: deterministic per seed.
struct Quality {
  double mean_utility = 0.0;
  double budget_met_frac = 0.0;
  double eta_coverage = 0.0;
};

Quality quality(const std::vector<rush::JobRecord>& records, const SessionResult& session) {
  Quality q;
  if (records.empty()) return q;
  double covered = 0.0;
  for (const rush::JobRecord& r : records) {
    q.mean_utility += r.utility;
    if (r.latency() <= 0.0) q.budget_met_frac += 1.0;
    const auto id = static_cast<std::size_t>(r.id);
    if (id < session.first_eta.size() && session.realised_demand[id] <= session.first_eta[id]) {
      covered += 1.0;
    }
  }
  const auto n = static_cast<double>(records.size());
  q.mean_utility /= n;
  q.budget_met_frac /= n;
  q.eta_coverage = covered / n;
  return q;
}

/// Everything one untraced session yields.
struct UntracedRep {
  std::vector<double> setup_s;
  std::vector<double> recover_s;
  double reply_us_p50 = 0.0;
  double reply_us_p99 = 0.0;
  SessionResult session;  // reply_us moved into the run's histogram
  std::vector<rush::JobRecord> records;
  bool correct = false;
};

/// Set-ups and recoveries per session: the session uses the last set-up,
/// and setup_s and recover_s are medians over all of them, so a run has
/// enough samples of these millisecond-scale, I/O-bound costs.
constexpr int kSetupsPerSession = 5;
constexpr int kRecoveriesPerSession = 3;

UntracedRep untraced_rep(const Options& options, std::uint64_t seed, const Files& files,
                         LogHistogram& latencies) {
  UntracedRep rep;
  rush::DaemonConfig config;
  config.event_log_path = files.wal;
  config.snapshot_path = files.snapshot;
  std::unique_ptr<Workload> workload;
  std::unique_ptr<rush::RushDaemon> daemon;
  std::unique_ptr<DaemonServer> server;
  bool hello = true;
  for (int i = 0; i < kSetupsPerSession; ++i) {
    server.reset();
    daemon.reset();
    const auto setup_start = Clock::now();
    workload = std::make_unique<Workload>(make_workload(options.workload, seed, options.scale));
    files.remove();
    daemon = std::make_unique<rush::RushDaemon>(config);
    daemon->recover();
    daemon->start_logging();
    daemon->begin_session();
    server = std::make_unique<DaemonServer>(*daemon);
    hello = handshake(*server) && hello;
    rep.setup_s.push_back(seconds_since(setup_start));
  }

  ClientOptions client;
  client.drop_grant = options.drop_grant;
  rep.session = run_session(*workload, *server, client);
  rep.reply_us_p50 = quantile(rep.session.reply_us, 0.5);
  rep.reply_us_p99 = quantile(rep.session.reply_us, 0.99);
  for (const double us : rep.session.reply_us) latencies.add(us);
  rep.session.reply_us = {};
  rep.records = daemon->engine().job_records();
  const bool finished = daemon->engine().unfinished_jobs() == 0;
  server.reset();
  daemon.reset();  // closes the WAL

  bool recovered_same = true;
  for (int i = 0; i < kRecoveriesPerSession; ++i) {
    rush::RushDaemon recovered(config);
    const auto recover_start = Clock::now();
    recovered.recover();
    rep.recover_s.push_back(seconds_since(recover_start));
    recovered_same = recovered_same && same_records(rep.records, recovered.engine().job_records());
  }
  rep.correct = hello && finished && rep.session.protocol_ok && recovered_same &&
                rep.records.size() == workload->jobs.size();
  return rep;
}

/// One traced session: the per-layer metrics plus its grant digest.
struct TracedRep {
  std::map<std::string, std::pair<double, const char*>> metrics;
  SessionResult session;
  bool correct = false;
};

TracedRep traced_rep(const Options& options, std::uint64_t seed, const Files& files,
                     Tracer& tracer) {
  TracedRep rep;
  const Workload workload = make_workload(options.workload, seed, options.scale);
  files.remove();
  tracer.clear();
  auto daemon = std::make_unique<TracedDaemon>(files.wal, files.snapshot, tracer);
  const bool hello = handshake(*daemon);
  tracer.clear();  // the handshake is set-up, not session

  ClientOptions client;
  client.tracer = &tracer;
  client.drop_grant = options.drop_grant;
  rep.session = run_session(workload, *daemon, client);
  const bool finished = daemon->engine().unfinished_jobs() == 0;
  const std::vector<rush::JobRecord> records = daemon->engine().job_records();

  auto& m = rep.metrics;
  // Self times over the session's wall time, before the restore span.
  double attributed_us = 0.0;
  for (std::size_t t = 0; t < static_cast<std::size_t>(Timing::kCount); ++t) {
    const auto timing = static_cast<Timing>(t);
    if (timing != Timing::kCoreAssign && timing != Timing::kStateRestore) {
      attributed_us += sum(tracer.samples(timing));
    }
  }
  const double wall_us = rep.session.wall_s * 1e6;
  m["trace.attributed_frac"] = {attributed_us / wall_us, "frac"};
  m["trace.unattributed_us"] = {wall_us - attributed_us, "us"};

  const rush::PlanStats plan = daemon->plan_stats();
  const rush::EngineStats& engine = daemon->engine().stats();
  const double passes = std::max<double>(1.0, static_cast<double>(plan.passes));
  m["tas.probes_per_pass"] = {static_cast<double>(plan.peel_probes) / passes, "probes/pass"};
  m["tas.layers_replayed_per_pass"] = {static_cast<double>(plan.layers_replayed) / passes,
                                       "layers/pass"};
  const double lookups = static_cast<double>(plan.wcde_cache_hits + plan.wcde_cache_misses);
  m["robust.cache_hit_frac"] = {
      lookups > 0.0 ? static_cast<double>(plan.wcde_cache_hits) / lookups : 0.0, "frac"};
  m["core.passes"] = {static_cast<double>(plan.passes), "count"};
  m["core.elided_frac"] = {static_cast<double>(plan.plans_elided) /
                               static_cast<double>(std::max(1L, plan.passes + plan.plans_elided)),
                           "frac"};
  m["estimator.samples"] = {static_cast<double>(daemon->samples()), "count"};
  m["engine.waves"] = {static_cast<double>(engine.dispatch_waves), "count"};
  m["engine.grants"] = {static_cast<double>(engine.assignments), "count"};
  m["engine.view_updates"] = {static_cast<double>(engine.view_updates), "count"};
  m["wire.bytes_in"] = {static_cast<double>(rep.session.bytes_in), "bytes"};
  m["wire.bytes_out"] = {static_cast<double>(rep.session.bytes_out), "bytes"};
  m["wal.records"] = {static_cast<double>(daemon->wal_records()), "count"};
  m["state.snapshot_bytes"] = {
      static_cast<double>(daemon->snapshot_bytes()) /
          static_cast<double>(std::max(1L, daemon->snapshots())),
      "bytes"};
  daemon.reset();  // closes the WAL
  m["wal.bytes"] = {static_cast<double>(std::filesystem::file_size(files.wal)), "bytes"};

  const TracedRecovery recovery = traced_recover(files.wal, files.snapshot, tracer);
  m["state.replay_events"] = {static_cast<double>(recovery.replay_events), "count"};

  for (std::size_t t = 0; t < static_cast<std::size_t>(Timing::kCount); ++t) {
    const std::vector<double>& samples = tracer.samples(static_cast<Timing>(t));
    const std::string name = kTimingNames[t];
    m[name + "_us"] = {sum(samples), "us"};
    m[name + ".count"] = {static_cast<double>(samples.size()), "count"};
    m[name + ".p50_us"] = {quantile(samples, 0.5), "us"};
    m[name + ".p99_us"] = {quantile(samples, 0.99), "us"};
  }
  rep.correct = hello && finished && rep.session.protocol_ok &&
                records.size() == workload.jobs.size() && same_records(records, recovery.records);
  return rep;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

void print_result(bool correct, long attempted, long failed,
                  const std::map<std::string, std::pair<double, const char*>>& metrics) {
  for (const auto& [name, value] : metrics) {
    std::printf("%-36s %.6g %s\n", name.c_str(), value.first, value.second);
  }
  std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  bool first = true;
  for (const auto& [name, value] : metrics) {
    const double v = std::isfinite(value.first) ? value.first : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", first ? "" : ", ",
                name.c_str(), v, value.second);
    first = false;
  }
  std::printf("}}\n");
}

constexpr int kMinReps = 3;
constexpr int kMaxReps = 200;

/// Seed of the index-th distinct session of a run (index 0: the run's seed).
std::uint64_t session_seed(std::uint64_t seed, int index) {
  return seed + 1000003ULL * static_cast<std::uint64_t>(index);
}

/// Size of the pipeline check that ends a --trace 0 run, relative to the
/// measured sessions; it keeps a run inside its time budget on a slow host.
constexpr double kCheckScale = 0.25;

int run(const Options& options) {
  const auto start = Clock::now();
  std::filesystem::create_directories(options.workdir);
  const Files files{options.workdir + "/session.wal", options.workdir + "/session.snap"};
  // A --trace 1 run repeats the run's own session, so its counts are exact
  // per seed; a --trace 0 run cycles through the workload's distinct ones.
  const int distinct =
      options.trace ? 1 : make_workload(options.workload, options.seed, options.scale).sessions;
  const int min_reps = options.trace ? 1 : std::max(kMinReps, distinct);

  std::vector<UntracedRep> reps;
  std::vector<TracedRep> traced;
  std::vector<double> rep_seconds;
  LogHistogram latencies;
  Tracer tracer;
  bool correct = true;
  // Repeat sessions until the next would overrun the window (estimated
  // from the median so far), running every distinct session at least once.
  while (static_cast<int>(reps.size()) < kMaxReps) {
    const int index = static_cast<int>(reps.size());
    if (index >= min_reps && seconds_since(start) + median(rep_seconds) > options.seconds) {
      break;
    }
    const std::uint64_t seed = session_seed(options.seed, index % distinct);
    const auto rep_start = Clock::now();
    reps.push_back(untraced_rep(options, seed, files, latencies));
    correct = correct && reps.back().correct &&
              reps.back().session.grant_digest == reps[index % distinct].session.grant_digest &&
              records_digest(reps.back().records) == records_digest(reps[index % distinct].records);
    if (options.trace) {
      traced.push_back(traced_rep(options, seed, files, tracer));
      correct = correct && traced.back().correct &&
                traced.back().session.grant_digest == reps.back().session.grant_digest;
    }
    rep_seconds.push_back(seconds_since(rep_start));
  }
  const double rss_mb = peak_rss_mb();  // before the check below
  long attempted = 0;
  long failed = 0;
  const auto count = [&](const SessionResult& session) {
    attempted += session.messages;
    failed += session.errors;
  };
  for (const UntracedRep& rep : reps) count(rep.session);
  for (const TracedRep& rep : traced) count(rep.session);
  if (!options.trace) {
    // Every run checks the traced pipeline against the daemon, here on a
    // smaller instance of the same workload.
    Options small = options;
    small.scale *= kCheckScale;
    LogHistogram unused;
    const UntracedRep reference = untraced_rep(small, options.seed, files, unused);
    const TracedRep check = traced_rep(small, options.seed, files, tracer);
    correct = correct && reference.correct && check.correct &&
              check.session.grant_digest == reference.session.grant_digest;
    count(reference.session);
    count(check.session);
  }
  files.remove();

  // Quality and digests over the distinct sessions, each counted once.
  Quality q;
  std::uint64_t records_hash = kFnvOffset;
  std::uint64_t grants_hash = kFnvOffset;
  long messages = 0;
  for (int i = 0; i < distinct; ++i) {
    const UntracedRep& rep = reps[static_cast<std::size_t>(i)];
    const Quality qi = quality(rep.records, rep.session);
    q.mean_utility += qi.mean_utility / distinct;
    q.budget_met_frac += qi.budget_met_frac / distinct;
    q.eta_coverage += qi.eta_coverage / distinct;
    const std::uint64_t hashes[] = {records_digest(rep.records), rep.session.grant_digest};
    records_hash = fnv1a(records_hash, &hashes[0], sizeof hashes[0]);
    grants_hash = fnv1a(grants_hash, &hashes[1], sizeof hashes[1]);
    messages += rep.session.messages;
  }
  std::printf("workload %s seed %llu: %zu measured sessions (%d distinct, %ld messages each "
              "on average), %zu traced\n",
              options.workload.c_str(), static_cast<unsigned long long>(options.seed),
              reps.size(), distinct, messages / distinct, options.trace ? traced.size() : 0);
  std::printf("digest records %016llx grants %016llx\n",
              static_cast<unsigned long long>(records_hash),
              static_cast<unsigned long long>(grants_hash));
  std::printf("error_frac %.6g (kError replies / messages)\n",
              static_cast<double>(failed) / static_cast<double>(std::max(1L, attempted)));

  std::map<std::string, std::pair<double, const char*>> metrics;
  if (!options.trace) {
    std::vector<double> eps, setup, recover;
    for (const UntracedRep& rep : reps) {
      std::printf("session %.4f s  %.1f msg/s  p50 %.2f us  p99 %.2f us  setup %.6f s  "
                  "recover %.6f s\n",
                  rep.session.wall_s, static_cast<double>(rep.session.messages) / rep.session.wall_s,
                  rep.reply_us_p50, rep.reply_us_p99, median(rep.setup_s), median(rep.recover_s));
      eps.push_back(static_cast<double>(rep.session.messages) / rep.session.wall_s);
      setup.insert(setup.end(), rep.setup_s.begin(), rep.setup_s.end());
      recover.insert(recover.end(), rep.recover_s.begin(), rep.recover_s.end());
    }
    metrics["events_per_s"] = {median(eps), "1/s"};
    metrics["reply_us_p50"] = {latencies.quantile(0.5), "us"};
    metrics["reply_us_p99"] = {latencies.quantile(0.99), "us"};
    metrics["setup_s"] = {median(setup), "s"};
    metrics["recover_s"] = {median(recover), "s"};
    metrics["mean_utility"] = {q.mean_utility, "utility"};
    metrics["budget_met_frac"] = {q.budget_met_frac, "frac"};
    metrics["eta_coverage"] = {q.eta_coverage, "frac"};
    metrics["peak_rss_mb"] = {rss_mb, "MB"};
  } else {
    // Medians over the traced sessions; overhead against the untraced
    // session run next to each.
    for (const auto& [name, value] : traced.front().metrics) {
      std::vector<double> values;
      for (const TracedRep& rep : traced) values.push_back(rep.metrics.at(name).first);
      metrics[name] = {median(values), value.second};
    }
    std::vector<double> overhead;
    for (std::size_t i = 0; i < traced.size(); ++i) {
      overhead.push_back(traced[i].session.wall_s / reps[i].session.wall_s - 1.0);
    }
    metrics["trace.overhead_frac"] = {median(overhead), "frac"};
  }
  print_result(correct, attempted, failed, metrics);
  if (!correct) std::fprintf(stderr, "rushbench: correctness gate failed\n");
  return correct ? 0 : 1;
}

bool parse(int argc, char** argv, Options& options) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::atof(value);
    } else if (flag == "--trace") {
      options.trace = std::string(value) == "1";
    } else if (flag == "--workdir") {
      options.workdir = value;
    } else if (flag == "--scale") {
      options.scale = std::atof(value);
    } else if (flag == "--drop-grant") {
      options.drop_grant = std::atol(value);
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !options.workload.empty() && options.scale > 0.0;
}

}  // namespace
}  // namespace rushbench

int main(int argc, char** argv) {
  rushbench::Options options;
  if (!rushbench::parse(argc, argv, options)) {
    std::fprintf(stderr,
                 "usage: rushbench --workload contended|steady|churn --seed N --seconds S "
                 "--trace 0|1 [--workdir DIR] [--scale X] [--drop-grant K]\n");
    return 2;
  }
  try {
    return rushbench::run(options);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "rushbench: %s\n", error.what());
    return 1;
  }
}
