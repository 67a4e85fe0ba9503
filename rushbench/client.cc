#include "rushbench/client.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <queue>
#include <stdexcept>

#include "src/cluster/node.h"
#include "src/common/rng.h"
#include "src/daemon/protocol.h"
#include "src/workload/generator.h"

namespace rushbench {

using rush::ClientMessage;
using rush::JobSpec;
using rush::Rng;
using rush::ServerMessage;
using rush::TaskSpec;

std::uint64_t fnv1a(std::uint64_t hash, const void* data, std::size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= 1099511628211ULL;
  }
  return hash;
}

namespace {

int scaled(int count, double scale) {
  return std::max(4, static_cast<int>(std::lround(count * scale)));
}

void sort_and_name(std::vector<JobSpec>& jobs) {
  std::stable_sort(jobs.begin(), jobs.end(), [](const JobSpec& a, const JobSpec& b) {
    return a.arrival < b.arrival;
  });
  for (std::size_t i = 0; i < jobs.size(); ++i) jobs[i].name = "job" + std::to_string(i);
}

/// A random permutation of 0..n-1.
std::vector<int> permutation(int n, Rng& rng) {
  std::vector<int> p(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) p[static_cast<std::size_t>(i)] = i;
  for (int i = n - 1; i > 0; --i) {
    std::swap(p[static_cast<std::size_t>(i)], p[static_cast<std::size_t>(rng.uniform_int(0, i))]);
  }
  return p;
}

/// A backlog far larger than the cluster drains in its arrival window, so
/// nearly every job is active at once: bench/dispatch_overhead.cc's
/// backlog_workload at 120 jobs, stratified.  Arrivals sit on a jittered
/// grid and each job attribute takes evenly spaced values in a seeded
/// order, so the total work, the budget mix and the peak backlog barely
/// move with the seed; only which job gets which values does.
Workload contended(std::uint64_t seed, double scale) {
  Workload w;
  const int jobs = scaled(120, scale);
  Rng rng(seed);
  const std::vector<int> maps = permutation(jobs, rng);
  const std::vector<int> reduces = permutation(jobs, rng);
  const std::vector<int> budgets = permutation(jobs, rng);
  const std::vector<int> priorities = permutation(jobs, rng);
  const auto stratum = [&](const std::vector<int>& order, int j) {
    return (order[static_cast<std::size_t>(j)] + rng.uniform()) / jobs;
  };
  for (int j = 0; j < jobs; ++j) {
    JobSpec spec;
    spec.arrival = 2.0 * (j + rng.uniform());
    spec.budget = 500.0 + 3500.0 * stratum(budgets, j);
    spec.priority = 0.5 + 2.5 * stratum(priorities, j);
    spec.beta = 1.0;
    spec.utility_kind = "sigmoid";
    const int map_count = 10 + maps[static_cast<std::size_t>(j)] % 16;
    const int reduce_count = reduces[static_cast<std::size_t>(j)] % 5;
    for (int m = 0; m < map_count; ++m) {
      spec.tasks.push_back(TaskSpec{rng.uniform(20.0, 120.0), false});
    }
    for (int r = 0; r < reduce_count; ++r) {
      spec.tasks.push_back(TaskSpec{rng.uniform(20.0, 90.0), true});
    }
    w.jobs.push_back(std::move(spec));
  }
  sort_and_name(w.jobs);
  w.snapshot_every = 500;
  w.sessions = 4;
  return w;
}

/// The paper's §V-B scenario: PUMA mix, Poisson arrivals (mean 130 s),
/// budgets at twice the benchmarked runtime.  Few jobs overlap.
Workload steady(std::uint64_t seed, double scale) {
  rush::WorkloadConfig config;
  config.num_jobs = scaled(2000, scale);
  config.mean_interarrival = 130.0;
  config.budget_ratio = 2.0;
  config.benchmark_speed = rush::average_speed_factor(rush::paper_testbed_nodes());
  config.seed = seed;
  Workload w;
  w.jobs = rush::generate_workload(config);
  sort_and_name(w.jobs);
  w.snapshot_every = 10000;
  w.sessions = 3;
  return w;
}

/// Many short jobs at about 75% load: arrivals and departures are a
/// quarter of the messages, and 5% of attempts fail.
Workload churn(std::uint64_t seed, double scale) {
  Workload w;
  const int jobs = scaled(5000, scale);
  Rng rng(seed);
  double arrival = 0.0;
  for (int j = 0; j < jobs; ++j) {
    JobSpec spec;
    arrival += rng.exponential(6.0);
    spec.arrival = arrival;
    spec.budget = rng.uniform(100.0, 600.0);
    spec.priority = rng.uniform(0.5, 3.0);
    spec.beta = 8.8 / (0.5 * spec.budget);
    spec.utility_kind = "sigmoid";
    const int maps = 1 + static_cast<int>(rng.uniform_int(0, 3));
    for (int m = 0; m < maps; ++m) spec.tasks.push_back(TaskSpec{rng.uniform(30.0, 90.0), false});
    if (rng.uniform() < 0.3) spec.tasks.push_back(TaskSpec{rng.uniform(20.0, 60.0), true});
    w.jobs.push_back(std::move(spec));
  }
  sort_and_name(w.jobs);
  w.snapshot_every = 1000;
  w.failure_probability = 0.05;
  w.sessions = 3;
  return w;
}

/// What a ResourceManager knows at submission: the job's XML config.  The
/// per-task nominal runtimes stay with the client.
rush::JobConfig to_job_config(const JobSpec& spec) {
  rush::JobConfig config;
  config.name = spec.name;
  config.budget = spec.budget;
  config.priority = spec.priority;
  config.beta = spec.beta;
  config.utility_kind = spec.utility_kind;
  config.sensitivity = spec.sensitivity;
  config.arrival = spec.arrival;
  config.maps = 0;
  config.reduces = 0;
  for (const TaskSpec& task : spec.tasks) (task.is_reduce ? config.reduces : config.maps) += 1;
  config.task_seconds = spec.total_nominal_work() / spec.task_count();
  return config;
}

constexpr double kRuntimeSigma = 0.25;

/// One running attempt, ordered by the simulated time it ends.
struct Attempt {
  double end = 0.0;
  long seq = 0;
  int container = -1;
  rush::JobId job = rush::kInvalidJob;
  double runtime = 0.0;  // full runtime, or the wasted time of a failure
  bool fails = false;
  bool operator>(const Attempt& other) const {
    return end != other.end ? end > other.end : seq > other.seq;
  }
};

class Client {
 public:
  Client(const Workload& workload, FrameServer& server, const ClientOptions& options)
      : workload_(workload), server_(server), options_(options), rng_(workload.physics_seed) {
    for (const rush::Node& node : rush::paper_testbed_nodes()) {
      for (int c = 0; c < node.containers; ++c) speeds_.push_back(node.speed_factor);
    }
    for (const JobSpec& spec : workload_.jobs) {
      owed_ += 1 + spec.task_count();
      auto& nominal = nominal_.emplace_back();
      for (const TaskSpec& task : spec.tasks) {
        nominal[task.is_reduce ? 1 : 0].push_back(task.nominal_runtime);
      }
    }
    snapshot_owed_ = owed_;
    const std::size_t jobs = workload_.jobs.size();
    result_.realised_demand.assign(jobs, 0.0);
    result_.first_eta.assign(jobs, std::numeric_limits<double>::quiet_NaN());
    result_.grant_digest = kFnvOffset;
  }

  SessionResult run() {
    const auto start = std::chrono::steady_clock::now();
    ClientMessage message;
    while (true) {
      {
        Tracer::Span span(options_.tracer, Timing::kClientBusy);
        if (!next_message(message)) break;
      }
      exchange(message);
    }
    message = ClientMessage{};
    message.kind = ClientMessage::Kind::kShutdown;
    message.time = now_;
    exchange(message);
    result_.wall_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    if (!goodbye_) result_.protocol_ok = false;
    return std::move(result_);
  }

 private:
  /// Picks the next client message on the simulated clock: a due snapshot
  /// request, else the earlier of the next arrival and the next attempt
  /// end.  False when nothing is left.
  bool next_message(ClientMessage& message) {
    message = ClientMessage{};
    const long every = workload_.snapshot_every;
    if (every > 0 && owed_ % every == every / 2 && owed_ != snapshot_owed_) {
      snapshot_owed_ = owed_;
      message.kind = ClientMessage::Kind::kSnapshotRequest;
      message.time = now_;
      return true;
    }
    const bool arrivals_left = next_job_ < workload_.jobs.size();
    if (arrivals_left &&
        (running_.empty() || workload_.jobs[next_job_].arrival <= running_.top().end)) {
      const JobSpec& spec = workload_.jobs[next_job_++];
      --owed_;
      now_ = spec.arrival;
      message.kind = ClientMessage::Kind::kSubmitJob;
      message.job = to_job_config(spec);
    } else if (!running_.empty()) {
      const Attempt attempt = running_.top();
      running_.pop();
      now_ = attempt.end;
      message.container = attempt.container;
      if (attempt.fails) {
        message.kind = ClientMessage::Kind::kContainerFreed;
        message.wasted = attempt.runtime;
      } else {
        message.kind = ClientMessage::Kind::kTaskFinished;
        message.runtime = attempt.runtime;
        --owed_;
        result_.realised_demand[static_cast<std::size_t>(attempt.job)] += attempt.runtime;
      }
    } else {
      return false;
    }
    message.time = now_;
    return true;
  }

  void exchange(const ClientMessage& message) {
    {
      Tracer::Span span(options_.tracer, Timing::kClientBusy);
      frame_ = rush::encode_frame(message);
    }
    replies_.clear();
    const auto start = std::chrono::steady_clock::now();
    server_.serve(frame_, now_, replies_);
    const auto stop = std::chrono::steady_clock::now();
    result_.reply_us.push_back(std::chrono::duration<double, std::micro>(stop - start).count());
    ++result_.messages;
    result_.bytes_in += frame_.size();
    result_.bytes_out += replies_.size();

    Tracer::Span span(options_.tracer, Timing::kClientBusy);
    buffer_.feed(replies_);
    bool accepted = false;
    while (buffer_.next(body_)) {
      const ServerMessage reply = rush::decode_server_message(body_);
      switch (reply.kind) {
        case ServerMessage::Kind::kJobAccepted:
          accepted = reply.job_id == static_cast<rush::JobId>(next_job_ - 1);
          break;
        case ServerMessage::Kind::kWave:
          on_wave(reply.wave);
          break;
        case ServerMessage::Kind::kError:
          ++result_.errors;
          break;
        case ServerMessage::Kind::kGoodbye:
          goodbye_ = true;
          break;
        case ServerMessage::Kind::kSnapshotSaved:
        case ServerMessage::Kind::kHelloOk:
          break;
      }
    }
    if (message.kind == ClientMessage::Kind::kSubmitJob && !accepted) {
      result_.protocol_ok = false;
    }
  }

  void on_wave(const rush::EngineWave& wave) {
    for (const rush::EngineAssignment& grant : wave.assignments) {
      if (grant_ordinal_++ == options_.drop_grant) continue;
      if (grant.job < 0 || static_cast<std::size_t>(grant.job) >= nominal_.size() ||
          grant.container < 0 || static_cast<std::size_t>(grant.container) >= speeds_.size()) {
        result_.protocol_ok = false;
        continue;
      }
      ++result_.grants;
      const std::int64_t fields[] = {wave.index, grant.job, grant.container, grant.task_index,
                                     grant.is_reduce ? 1 : 0};
      result_.grant_digest = fnv1a(result_.grant_digest, fields, sizeof fields);

      const auto& nominal = nominal_[static_cast<std::size_t>(grant.job)][grant.is_reduce ? 1 : 0];
      Attempt attempt;
      attempt.seq = seq_++;
      attempt.container = grant.container;
      attempt.job = grant.job;
      attempt.runtime = nominal.at(static_cast<std::size_t>(grant.task_index)) *
                        speeds_[static_cast<std::size_t>(grant.container)] *
                        rng_.lognormal_noise(kRuntimeSigma);
      attempt.fails = workload_.failure_probability > 0.0 &&
                      rng_.uniform() < workload_.failure_probability;
      if (attempt.fails) attempt.runtime *= rng_.uniform(0.1, 0.9);
      attempt.end = wave.now + attempt.runtime;
      running_.push(attempt);
    }
    for (const rush::EnginePrediction& prediction : wave.predictions) {
      if (prediction.id < 0 ||
          static_cast<std::size_t>(prediction.id) >= result_.first_eta.size()) {
        result_.protocol_ok = false;
        continue;
      }
      double& eta = result_.first_eta[static_cast<std::size_t>(prediction.id)];
      if (std::isnan(eta)) eta = prediction.eta;
    }
  }

  const Workload& workload_;
  FrameServer& server_;
  ClientOptions options_;
  Rng rng_;
  std::vector<double> speeds_;                             // by container
  std::vector<std::array<std::vector<double>, 2>> nominal_;  // [job][is_reduce][task]
  std::priority_queue<Attempt, std::vector<Attempt>, std::greater<>> running_;
  std::size_t next_job_ = 0;
  /// Submissions and task completions still to send (a failed attempt
  /// leaves its task owed).  Snapshot requests fall where it crosses
  /// every/2 modulo every, so the last one always comes every/2 owed
  /// messages before the end and recovery replays a tail of fixed length.
  long owed_ = 0;
  long snapshot_owed_ = 0;
  long seq_ = 0;
  long grant_ordinal_ = 0;
  double now_ = 0.0;
  bool goodbye_ = false;
  std::string frame_;
  std::string replies_;
  std::string body_;
  rush::FrameBuffer buffer_;
  SessionResult result_;
};

}  // namespace

Workload make_workload(const std::string& name, std::uint64_t seed, double scale) {
  Workload w;
  if (name == "contended") {
    w = contended(seed, scale);
  } else if (name == "steady") {
    w = steady(seed, scale);
  } else if (name == "churn") {
    w = churn(seed, scale);
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  w.name = name;
  w.physics_seed = seed * 0x9E3779B97F4A7C15ULL + 17;
  return w;
}

bool handshake(FrameServer& server) {
  ClientMessage hello;
  hello.kind = ClientMessage::Kind::kHello;
  std::string replies;
  server.serve(rush::encode_frame(hello), 0.0, replies);
  rush::FrameBuffer buffer;
  buffer.feed(replies);
  std::string body;
  return buffer.next(body) &&
         rush::decode_server_message(body).kind == ServerMessage::Kind::kHelloOk;
}

SessionResult run_session(const Workload& workload, FrameServer& server,
                          const ClientOptions& options) {
  return Client(workload, server, options).run();
}

}  // namespace rushbench
