// Scheduler-side dispatch overhead of change-proportional planning — replan
// elision plus peel-layer replay (DESIGN.md §5h) — measured against the
// always-replan baseline on the same contended workloads.
//
// For each (jobs, containers) point the same synthetic backlog runs twice
// through EngineSimulation with RUSH: once with elision on at
// $RUSH_DISPATCH_ETA_TOL ("elision"), once with elision off ("replan").  A
// bench-local forwarding decorator times every scheduler call — the
// notification hooks and assign_containers — so the measurement is the
// scheduler's share of the dispatch seam; the engine's view refresh is the
// same in both modes and is left out.  The figure of merit is
// scheduler-side events/sec = scheduling_events / scheduler seconds.  A
// nonzero tolerance may steer the simulation slightly, so the two modes are
// compared as rates, not as seconds.  The columns plans_per_wave,
// plans_elided_per_wave and layers_replayed_per_pass show where the gain
// comes from.
//
// Writes out/dispatch_overhead.csv and BENCH_dispatch.json (working
// directory; CI runs it from the repo root).
//
// Exit status: non-zero when a run does not drain, or when the RUSH 200x48
// elision speedup falls below $RUSH_DISPATCH_MIN_RUSH_SPEEDUP (default 1.5).
// Knobs: $RUSH_DISPATCH_SEED (default 4242), $RUSH_DISPATCH_REPEATS
// (default 1, best-of), $RUSH_DISPATCH_ETA_TOL (default 0.15),
// $RUSH_BENCH_JSON.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench/provenance.h"
#include "src/cluster/node.h"
#include "src/common/rng.h"
#include "src/core/rush_scheduler.h"
#include "src/engine/simulation.h"
#include "src/metrics/csv.h"
#include "src/metrics/text_table.h"

namespace rush {
namespace {

double env_or(const char* name, double fallback) {
  const char* value = std::getenv(name);
  return value != nullptr && *value != '\0' ? std::atof(value) : fallback;
}

/// A contended backlog: arrivals spread over a window far shorter than the
/// total work, so most jobs stay active at once.
std::vector<JobSpec> backlog_workload(int jobs, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<JobSpec> specs;
  for (int j = 0; j < jobs; ++j) {
    JobSpec spec;
    spec.name = "job" + std::to_string(j);
    spec.arrival = rng.uniform(0.0, 2.0 * jobs);
    spec.budget = rng.uniform(500.0, 4000.0);
    spec.priority = rng.uniform(0.5, 3.0);
    spec.beta = 1.0;
    spec.utility_kind = "sigmoid";
    const int maps = 10 + static_cast<int>(rng.uniform_int(0, 15));
    const int reduces = static_cast<int>(rng.uniform_int(0, 4));
    for (int m = 0; m < maps; ++m) {
      spec.tasks.push_back(TaskSpec{rng.uniform(20.0, 120.0), false});
    }
    for (int r = 0; r < reduces; ++r) {
      spec.tasks.push_back(TaskSpec{rng.uniform(20.0, 90.0), true});
    }
    specs.push_back(std::move(spec));
  }
  return specs;
}

/// Forwards every call to the wrapped scheduler and accumulates the wall
/// time spent inside it.
class TimedScheduler final : public Scheduler {
 public:
  explicit TimedScheduler(Scheduler& inner) : inner_(inner) {}

  std::string name() const override { return inner_.name(); }
  std::vector<JobId> assign_containers(const ClusterView& view, int count) override {
    const Span span(seconds_);
    return inner_.assign_containers(view, count);
  }
  void on_job_arrival(const ClusterView& view, JobId job) override {
    const Span span(seconds_);
    inner_.on_job_arrival(view, job);
  }
  void on_task_finished(const ClusterView& view, JobId job, Seconds runtime,
                        bool is_reduce) override {
    const Span span(seconds_);
    inner_.on_task_finished(view, job, runtime, is_reduce);
  }
  void on_task_failed(const ClusterView& view, JobId job, Seconds wasted) override {
    const Span span(seconds_);
    inner_.on_task_failed(view, job, wasted);
  }
  void on_job_finished(const ClusterView& view, JobId job) override {
    const Span span(seconds_);
    inner_.on_job_finished(view, job);
  }

  double seconds() const { return seconds_; }

 private:
  class Span {
   public:
    explicit Span(double& sink) : sink_(sink), start_(std::chrono::steady_clock::now()) {}
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;
    ~Span() {
      sink_ += std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
                   .count();
    }

   private:
    double& sink_;
    std::chrono::steady_clock::time_point start_;
  };

  Scheduler& inner_;
  double seconds_ = 0.0;
};

struct Point {
  int jobs;
  int containers;
};

struct ModeResult {
  RunResult run;
  double scheduler_seconds = 0.0;
  double wall_ms = 0.0;
  long plans = 0;     // planning passes
  long elided = 0;    // waves served from the cached plan
  long replayed = 0;  // peel layers replayed across passes
  double events_per_sec() const {
    return scheduler_seconds > 0.0
               ? static_cast<double>(run.scheduling_events) / scheduler_seconds
               : 0.0;
  }
};

/// The change-proportional planning pipeline (DESIGN.md §5h) at an elision
/// tolerance from $RUSH_DISPATCH_ETA_TOL (relative eta drift).
RushConfig elision_config() {
  RushConfig config;
  config.replan_elision = true;
  config.replan_eta_tolerance = env_or("RUSH_DISPATCH_ETA_TOL", 0.15);
  return config;
}

/// The always-replan baseline: a full WCDE+peel+map pass on every dirty
/// wave.
RushConfig replan_config() {
  RushConfig config;
  config.replan_elision = false;
  config.replan_eta_tolerance = 0.0;
  return config;
}

ModeResult run_point(const Point& point, std::uint64_t seed, const RushConfig& rush_config) {
  ClusterConfig config;
  config.nodes = homogeneous_nodes(point.containers / 8, 8);
  config.runtime_noise_sigma = 0.25;
  config.seed = seed + 17;
  config.audit_incremental_view = false;  // never measure the audits

  RushScheduler rush(rush_config);
  TimedScheduler timed(rush);
  EngineSimulation simulation(config, timed);
  for (JobSpec spec : backlog_workload(point.jobs, seed)) {
    simulation.submit(std::move(spec));
  }
  ModeResult mode;
  const auto start = std::chrono::steady_clock::now();
  mode.run = simulation.run();
  const auto stop = std::chrono::steady_clock::now();
  mode.wall_ms = std::chrono::duration<double, std::milli>(stop - start).count();
  if (!mode.run.completed) {
    std::fprintf(stderr, "dispatch_overhead: RUSH %dx%d did not drain\n", point.jobs,
                 point.containers);
    std::exit(2);
  }
  mode.scheduler_seconds = timed.seconds();
  const PlanStats stats = rush.plan_stats();
  mode.plans = rush.plans_computed();
  mode.elided = stats.plans_elided;
  mode.replayed = stats.layers_replayed;
  return mode;
}

/// Best scheduler time over `repeats` runs (identical simulations; repeats
/// only damp timer noise on loaded hosts).
ModeResult best_of(const Point& point, std::uint64_t seed, int repeats,
                   const RushConfig& rush_config) {
  ModeResult best = run_point(point, seed, rush_config);
  for (int r = 1; r < repeats; ++r) {
    ModeResult next = run_point(point, seed, rush_config);
    if (next.scheduler_seconds < best.scheduler_seconds) best = std::move(next);
  }
  return best;
}

double per_wave(long count, const ModeResult& m) {
  return static_cast<double>(count) /
         std::max(1.0, static_cast<double>(m.run.dispatch_waves));
}

double replayed_per_pass(const ModeResult& m) {
  return m.plans > 0 ? static_cast<double>(m.replayed) / static_cast<double>(m.plans)
                     : 0.0;
}

}  // namespace
}  // namespace rush

int main() {
  using rush::ModeResult;
  using rush::Point;
  using rush::TextTable;

  const auto seed =
      static_cast<std::uint64_t>(rush::env_or("RUSH_DISPATCH_SEED", 4242.0));
  const int repeats =
      std::max(1, static_cast<int>(rush::env_or("RUSH_DISPATCH_REPEATS", 1.0)));
  const double min_rush_speedup = rush::env_or("RUSH_DISPATCH_MIN_RUSH_SPEEDUP", 1.5);
  const std::vector<Point> points = {{50, 16}, {200, 48}};

  const std::string csv_path = rush::output_path("dispatch_overhead.csv");
  rush::CsvWriter csv(csv_path,
                      {"scheduler", "jobs", "containers", "mode", "events", "waves",
                       "view_updates", "plans_per_wave", "plans_elided_per_wave",
                       "layers_replayed_per_pass", "scheduler_ms", "events_per_sec",
                       "speedup", "run_wall_ms", "makespan_s"});
  TextTable table({"point", "mode", "events", "plans/wave", "elided/wave",
                   "scheduler ms", "events/sec", "speedup"});

  double rush_speedup = 0.0;
  std::ostringstream json_points;
  for (const Point& point : points) {
    const ModeResult elision =
        rush::best_of(point, seed, repeats, rush::elision_config());
    const ModeResult replan = rush::best_of(point, seed, repeats, rush::replan_config());
    const double speedup = replan.events_per_sec() > 0.0
                               ? elision.events_per_sec() / replan.events_per_sec()
                               : 0.0;
    const std::string label =
        "RUSH " + std::to_string(point.jobs) + "x" + std::to_string(point.containers);
    const auto emit = [&](const char* mode, const ModeResult& m, double su) {
      csv.add_row({"RUSH", std::to_string(point.jobs), std::to_string(point.containers),
                   mode, std::to_string(m.run.scheduling_events),
                   std::to_string(m.run.dispatch_waves),
                   std::to_string(m.run.view_updates),
                   TextTable::num(rush::per_wave(m.plans, m), 3),
                   TextTable::num(rush::per_wave(m.elided, m), 3),
                   TextTable::num(rush::replayed_per_pass(m), 3),
                   TextTable::num(m.scheduler_seconds * 1e3, 2),
                   TextTable::num(m.events_per_sec(), 0), TextTable::num(su, 2),
                   TextTable::num(m.wall_ms, 1), TextTable::num(m.run.makespan, 1)});
      table.add_row({label, mode, std::to_string(m.run.scheduling_events),
                     TextTable::num(rush::per_wave(m.plans, m), 3),
                     TextTable::num(rush::per_wave(m.elided, m), 3),
                     TextTable::num(m.scheduler_seconds * 1e3, 2),
                     TextTable::num(m.events_per_sec(), 0), TextTable::num(su, 2)});
    };
    emit("replan", replan, 1.0);
    emit("elision", elision, speedup);
    if (point.jobs == 200 && point.containers == 48) rush_speedup = speedup;

    json_points << "  \"RUSH_" << point.jobs << "x" << point.containers << "\": {\n"
                << "    \"events\": " << elision.run.scheduling_events << ",\n"
                << "    \"elision_scheduler_ms\": " << elision.scheduler_seconds * 1e3
                << ",\n"
                << "    \"elision_events_per_sec\": " << elision.events_per_sec() << ",\n"
                << "    \"replan_scheduler_ms\": " << replan.scheduler_seconds * 1e3
                << ",\n"
                << "    \"replan_events_per_sec\": " << replan.events_per_sec() << ",\n"
                << "    \"plans_per_wave\": " << rush::per_wave(elision.plans, elision)
                << ",\n"
                << "    \"plans_elided_per_wave\": "
                << rush::per_wave(elision.elided, elision) << ",\n"
                << "    \"layers_replayed_per_pass\": " << rush::replayed_per_pass(elision)
                << ",\n"
                << "    \"elision_speedup\": " << speedup << "\n  },\n";
  }
  table.print(std::cout);
  std::printf("\n200x48 gate: RUSH elision speedup %.2fx (gate %.2fx)\n", rush_speedup,
              min_rush_speedup);
  std::printf("wrote %s\n", csv_path.c_str());

  const char* json_env = std::getenv("RUSH_BENCH_JSON");
  const std::string json_path =
      json_env != nullptr && *json_env != '\0' ? json_env : "BENCH_dispatch.json";
  {
    std::ofstream json(json_path, std::ios::trunc);
    json << "{\n"
         << "  \"bench\": \"dispatch_overhead\",\n"
         << rush_bench::provenance_json_fields() << "  \"seed\": " << seed << ",\n"
         << "  \"repeats\": " << repeats << ",\n"
         << "  \"eta_tolerance\": " << rush::env_or("RUSH_DISPATCH_ETA_TOL", 0.15)
         << ",\n"
         << json_points.str() << "  \"rush_speedup_200x48\": " << rush_speedup << ",\n"
         << "  \"min_rush_speedup_gate\": " << min_rush_speedup << "\n}\n";
  }
  std::printf("wrote %s\n", json_path.c_str());

  // Gate: change-proportional planning must beat the always-replan baseline
  // at the RUSH 200x48 point by the configured factor.
  if (min_rush_speedup > 0.0 && rush_speedup < min_rush_speedup) {
    std::fprintf(stderr,
                 "dispatch_overhead: FAIL — RUSH 200x48 elision speedup %.2fx below "
                 "required %.2fx\n",
                 rush_speedup, min_rush_speedup);
    return 1;
  }
  return 0;
}
